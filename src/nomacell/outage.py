"""Outage probability assembly.

Reduces a (channel estimate, precoder, filter) triple to the effective
post-filter quantities and evaluates outage as a chain of decoding stages.
The effective channel records the user's own stream, so the operators
take any pair's link as given.  A stage (scale, tau) succeeds when the
noncentral Gaussian quadratic form of the estimation error around the mean
vector mu, with the own-stream entry multiplied by `scale`, plus the
interference stays at most tau.  Far-user and single-stream outage have
one stage; near-user outage has two, the SIC stage (cancel the far
message) and the own-message stage.  Every stage sits under one
interference factor phi: the conditional PPP Laplace functional at a fixed
link distance, or its average over a grouping policy's distance law.
`_user_law` gives a user's noise and factor either way.  `_outage` alone
decides how every operator evaluates: a flag, a certain stage, the
concentration shortcut, or inversion, either of the near user's exact
joint SIC event in 2D (the joint that `_NearJoint` passes in) or of one
stage at a time in 1D (whose product is the stage-independence
approximation for the near user).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GroupingPolicy, distance_mixture, interference_coefficient, \
    policy_laplace_factor
from .laplace import Inversion1DConfig, Inversion2DConfig, invert_1d, invert_2d
from .model import ChannelEstimate, NetworkParams, PairConfig

__all__ = [
    "EffectiveChannel",
    "OutageResult",
    "effective_channel",
    "far_outage_conditional",
    "far_outage_average",
    "near_outage_conditional_exact",
    "near_outage_conditional_approx",
    "near_outage_average",
    "single_stream_outage_conditional",
]


@dataclass(frozen=True, slots=True)
class EffectiveChannel:
    """Post-filter view of one user's link.

    `mu[i] = u^H H_hat v_i` are the known effective gains, (delta, Psi) the
    eigensystem of the covariance of the filtered error vector u^H E V,
    sorted by descending eigenvalue, `omega` the interference coefficient
    of the filter, `sigma_u2` the filtered noise power and `stream` the
    0-based index of the stream the user decodes (its pair's stream).
    """

    mu: np.ndarray
    delta: np.ndarray
    Psi: np.ndarray
    omega: float
    sigma_u2: float
    sigma_h2: float
    stream: int

    @property
    def K(self) -> int:
        return len(self.mu)

    @property
    def own_gain2(self) -> float:
        """|mu_k|^2 of the user's own stream."""
        return abs(self.mu[self.stream]) ** 2

    def noise(self, d: float, params: NetworkParams) -> float:
        """Filtered noise power over the transmit power received at d."""
        return self.sigma_u2 / (params.P * params.path_loss(d))


@dataclass(frozen=True, slots=True)
class OutageResult:
    """Clamped probability plus the raw inversion value and quality flag."""

    probability: float
    raw: float
    flag: str | None = None


def effective_channel(est: ChannelEstimate, V: np.ndarray, u: np.ndarray,
                      stream: int, params: NetworkParams) -> EffectiveChannel:
    """Reduce (estimate, precoder, receive filter) to effective-link form;
    `stream` is the 0-based column of V the user decodes."""
    V = np.asarray(V, dtype=complex)
    u = np.asarray(u, dtype=complex).reshape(-1)
    norms = np.linalg.norm(V, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("precoding columns must have unit norm")
    mu = u.conj() @ est.H_hat @ V
    quad_r = float((u.conj() @ est.R_r @ u).real)
    Sigma = est.sigma_h2 * quad_r * (V.conj().T @ est.R_t @ V).T
    delta, Psi = np.linalg.eigh(Sigma)
    delta = np.clip(delta[::-1].real, 0.0, None)
    Psi = Psi[:, ::-1]
    return EffectiveChannel(
        mu=mu,
        delta=delta,
        Psi=Psi,
        omega=interference_coefficient(u, params),
        sigma_u2=params.sigma2 * float(np.linalg.norm(u) ** 2),
        sigma_h2=est.sigma_h2,
        stream=stream,
    )


def _inv_snr_gap(rate: float) -> float:
    """1 / (2^R - 1); a zero rate, or one so small that 2^R rounds to 1,
    makes the success event certain."""
    gap = 2.0 ** rate - 1.0
    return 1.0 / gap if gap > 0.0 else math.inf


def _far_stage(eff: EffectiveChannel, pair: PairConfig, noise: float):
    """(scale, tau) of the far user's decoding stage; `noise` as
    `_user_law` gives it."""
    tau = (_inv_snr_gap(pair.R_kt) - pair.beta_k2) * pair.beta_kt2 * eff.own_gain2
    return pair.beta_k2, tau - noise


def _near_abscissae(eff: EffectiveChannel, pair: PairConfig, noise: float):
    """(theta_sic, theta_own) of the near user; `noise` as `_user_law`
    gives it."""
    mu2 = eff.own_gain2
    return (mu2 * pair.beta_kt2 * _inv_snr_gap(pair.R_kt) - noise,
            mu2 * pair.beta_k2 * _inv_snr_gap(pair.R_k) - noise)


def _projected_mean(eff: EffectiveChannel, scale: float) -> np.ndarray:
    """|Psi^H nu|^2 for nu = mu with the own-stream entry multiplied by
    `scale`."""
    nu = eff.mu.copy()
    nu[eff.stream] = scale * nu[eff.stream]
    return np.abs(eff.Psi.conj().T @ nu) ** 2


def _near_stages(eff: EffectiveChannel, pair: PairConfig,
                 theta_sic: float, theta_own: float):
    """(scale, tau) of the near user's SIC and own-message stages.

    The SIC stage keeps the near message as interference: its own-stream
    power beta_k2 beta_kt2 |mu_k|^2 moves from the form to the threshold.
    """
    shift = pair.beta_k2 * pair.beta_kt2 * eff.own_gain2
    return (pair.beta_k2, theta_sic - shift), (0.0, theta_own)


def _quadform_transform_1d(zeta2: np.ndarray, delta: np.ndarray, phi):
    """Success-probability transform of a noncentral Gaussian quadratic form.

    F(s) = prod_i exp(-s zeta2_i / (1 + s delta_i)) * phi(s)
           / (s prod_i (1 + s delta_i))
    where phi carries the interference (and, for averages, distance/noise)
    factor; None stands for phi = 1.
    """
    def F(s):
        s = np.asarray(s, dtype=complex)
        d = 1.0 + np.multiply.outer(s, delta)
        expo = -np.sum(np.multiply.outer(s, zeta2) / d, axis=-1)
        num = np.exp(expo) if phi is None else np.exp(expo) * phi(s)
        return num / (s * np.prod(d, axis=-1))

    return F


def _concentration_margin(zeta2: np.ndarray, delta: np.ndarray, tau: float):
    """Threshold margin of the quadratic form in units of its spread.

    The form sum |chi_i + zeta_i|^2 has mean sum(delta + zeta2) and variance
    sum(delta^2 + 2 delta zeta2); far outside a 40-spread band the success
    probability is 0 or 1 to far below the inversion resolution, where the
    trapezoidal kernels would only return ringing.
    """
    mean = float(np.sum(delta + zeta2))
    spread = math.sqrt(float(np.sum(delta ** 2 + 2 * delta * zeta2)))
    spread = max(spread, float(delta.max(initial=0.0)))
    margin = tau - mean
    if spread == 0.0 or abs(margin) > 40.0 * spread:
        return 1.0 if margin > 0 else 0.0
    return None


def _exp_polar(u, half_v, re, im):
    """re + i im = exp(u + 2i half_v), elementwise over real arrays, which
    it overwrites (`re` and `im` may be `u` and `half_v`).

    One real exp and one tan t = tan(half_v) give the pair: cos 2 half_v =
    2 / (1 + t^2) - 1 and sin 2 half_v = 2 t / (1 + t^2), since numpy
    vectorizes real `exp` and `tan` where complex `exp` may go through
    scalar libm (as `geometry._mixture_integral` does).
    """
    np.exp(u, out=u)
    t = np.tan(half_v, out=half_v)
    k = t * t
    k += 1.0
    np.divide(u, k, out=k)  # e^u / (1 + t^2)
    t *= k
    np.add(t, t, out=im)
    k += k
    np.subtract(k, u, out=re)


def _exp(z):
    """exp(z) in place over a complex array, by `_exp_polar`."""
    part = np.empty((2,) + z.shape)
    np.copyto(part[0], z.real)
    np.multiply(z.imag, 0.5, out=part[1])
    _exp_polar(part[0], part[1], z.real, z.imag)


def _interference_phi(omega: float, d: float, params: NetworkParams):
    """Interference factor exp(-c s^(2/alpha)) of the conditional
    transforms, or None in an interference-free network, where the factor
    is the constant 1.

    Real arithmetic throughout (Re s > 0): s^p = exp(p log|s| + i p arg s)
    and then exp(-c s^p), each by `_exp_polar`.
    """
    expo = 2.0 / params.alpha
    coeff = math.pi * params.lambda_b * omega * d * d
    if coeff == 0.0:
        return None
    # (log|s|, arg s) -> (p log|s|, p arg s / 2); (Re, Im) s^p -> (-c Re,
    # -c Im / 2)
    scale = np.array([[expo], [0.5 * expo]])
    flip = np.array([[-coeff], [-0.5 * coeff]])

    def phi(s):
        part = np.empty((2,) + s.shape)
        size, angle = part[0], part[1]
        np.log(np.abs(s, out=size), out=size)
        np.arctan2(s.imag, s.real, out=angle)
        part *= scale
        _exp_polar(size, angle, size, angle)
        part *= flip
        out = np.empty(s.shape, dtype=complex)
        _exp_polar(size, angle, out.real, out.imag)
        return out

    return phi


# Points per distance-averaged factor pass (one row of the default 2D grid):
# the exp-sinh rule's intermediates hold three real values per node, point
# and mixture term, about 0.86 MB per term here (tracemalloc peak), where one
# pass over all 18,721 grid points would take about 84 MB per term.
_FACTOR_CHUNK = 193


def _user_law(eff: EffectiveChannel, pair: PairConfig, params: NetworkParams,
              far: bool, policy: GroupingPolicy | None = None,
              interference_limited: bool = False):
    """(noise, phi) of the near or far user of `pair`.

    Without a policy, the noise at the user's link distance and the
    conditional interference factor there.  With one, noise 0 and the
    factor averaged over the policy's law of the user's serving distance,
    which carries the noise too unless `interference_limited`; random
    grouping makes the near user rank 1 of 2 and the far user rank 2 of 2.
    The average is evaluated `_FACTOR_CHUNK` points at a time.
    """
    if policy is None:
        d = pair.d_kt if far else pair.d_k
        return eff.noise(d, params), _interference_phi(eff.omega, d, params)
    rank = ((pair.r_k, pair.r_kt) if policy.variant == "distance"
            else (1, 2))[far]
    mixture = distance_mixture(rank, policy.order_total(params.K))
    sigma_u2 = 0.0 if interference_limited else eff.sigma_u2

    def phi(s):
        return np.concatenate([
            policy_laplace_factor(s[i:i + _FACTOR_CHUNK], mixture, eff.omega,
                                  sigma_u2, params)
            for i in range(0, len(s), _FACTOR_CHUNK)])

    return 0.0, phi


def _clamp(raw: float) -> OutageResult:
    return OutageResult(min(max(raw, 0.0), 1.0), raw)


def _outage(eff: EffectiveChannel, pair: PairConfig | None, stages, phi,
            cfg: Inversion1DConfig | None, joint=None) -> OutageResult:
    """Outage of a user's decoding stages; every operator evaluates here.

    An infeasible rate split (`pair` is None for an exclusively scheduled
    stream) or a nonpositive threshold makes outage certain (flagged).  An
    infinite threshold (zero rate) makes its stage succeed.  Without
    interference (`phi` is None) a stage whose threshold sits far outside
    the form's spread band is decided without inversion.  If stages are
    left, the outage is 1 - `joint()`, the joint success probability of
    all stages, when it is given and no threshold is infinite; otherwise
    1 - the product of the stages' 1D-inverted successes.
    """
    if pair is not None and not pair.feasible:
        return OutageResult(1.0, 1.0, "infeasible_rate_split")
    if any(tau <= 0.0 for _, tau in stages):
        return OutageResult(1.0, 1.0, "nonpositive_threshold")
    q, undecided = 1.0, []
    for scale, tau in stages:
        if tau == math.inf:  # a zero rate: no joint event is left
            joint = None
            continue
        zeta2 = None
        if phi is None:
            zeta2 = _projected_mean(eff, scale)
            certain = _concentration_margin(zeta2, eff.delta, tau)
            if certain is not None:
                q *= certain
                continue
        undecided.append((scale, tau, zeta2))
    if q == 0.0 or not undecided:
        return _clamp(1.0 - q)
    if joint is not None:
        return _clamp(1.0 - joint())
    for scale, tau, zeta2 in undecided:
        if zeta2 is None:
            zeta2 = _projected_mean(eff, scale)
        q *= invert_1d(_quadform_transform_1d(zeta2, eff.delta, phi), tau, cfg)
    return _clamp(1.0 - q)


def far_outage_conditional(eff: EffectiveChannel, pair: PairConfig,
                           params: NetworkParams,
                           cfg: Inversion1DConfig | None = None) -> OutageResult:
    """Far-user outage given the channel state and link distance."""
    noise, phi = _user_law(eff, pair, params, far=True)
    return _outage(eff, pair, (_far_stage(eff, pair, noise),), phi, cfg)


def far_outage_average(eff: EffectiveChannel, pair: PairConfig,
                       params: NetworkParams, policy: GroupingPolicy,
                       cfg: Inversion1DConfig | None = None,
                       interference_limited: bool = False) -> OutageResult:
    """Far-user outage averaged over the policy's serving-distance law."""
    noise, phi = _user_law(eff, pair, params, True, policy,
                           interference_limited)
    return _outage(eff, pair, (_far_stage(eff, pair, noise),), phi, cfg)


def _near_joint_transform(eff: EffectiveChannel, pair: PairConfig, phi):
    """Two-variable success transform of the joint SIC event.

    The transform is a form of (s, t) times the interference (or
    distance-averaged) factor `phi` of s + t.  Where `phi` is None it is
    the form alone; otherwise it needs `lattice`, the s + t lattice that
    `invert_2d` hands it (`laplace._lattice`).
    The diagonal scaling matrices of the two stacked quadratic forms enter
    only through a handful of projections onto the error eigenbasis, which
    are precomputed.  The form then loops over the K eigencomponents, each
    term evaluated on a whole (s, t) grid at once, accumulating the
    negated exponent and the product s t prod_i (1 + (s + t) delta_i).
    The loop runs in three grid buffers with in-place ufuncs, in the
    operation and operand order of the plain broadcasting expression, and
    takes its exp in real arithmetic (`_exp`), so it agrees with that
    expression to rounding (below 1e-12 relative), not bit for bit.

    With the factor, while the lattice's keys number at most half the
    nodes, it takes its per-key form: with sigma = beta_k2 s the exponent
    is a quadratic in sigma whose coefficients, like the factor over
    prod_i (1 + u delta_i), depend on u = s + t alone; they are evaluated
    once per key, and each node takes one quadratic in sigma, one exp
    (`_exp`, as in the loop) and the products with the per-key factor and
    1 / (s t).  That agrees with the loop times the factor to rounding
    (below 1e-12 relative; the terms of the exponent cancel most at low
    K-factors), not bit for bit.  Otherwise the loop runs and the grid is
    multiplied by the factor at its keys.
    """
    mu, delta, Psi = eff.mu, eff.delta, eff.Psi
    b2, bt2 = pair.beta_k2, pair.beta_kt2
    k = eff.stream
    mask = np.ones(eff.K, dtype=bool)
    mask[k] = False
    # mu^H A psi_i = (s+t) * p_i + s * b2 * r_i
    p_proj = (mu[mask].conj() @ Psi[mask, :])
    r_proj = mu[k].conjugate() * Psi[k, :]
    # psi_i^H B mu = (s * bt2 + t) * q_i ;  psi_i^H mu = w_i
    q_proj = Psi[k, :].conj() * mu[k]
    w_proj = Psi.conj().T @ mu

    def per_node(s, t):
        u = s + t
        s_b2 = s * b2
        s_bt2_t = s * bt2 + t
        quad, den = np.zeros_like(u), s * t
        denom, left, right = (np.empty_like(u) for _ in range(3))
        for i in range(eff.K):
            np.add(1.0, np.multiply(u, delta[i], out=denom), out=denom)
            np.multiply(u, p_proj[i], out=left)
            left += s_b2 * r_proj[i]
            np.multiply(delta[i], s_bt2_t, out=right)
            right *= q_proj[i]
            right += w_proj[i]
            left *= right
            left /= denom
            quad -= left
            den *= denom
        _exp(quad)
        quad /= den
        return quad

    # With sigma = b2 s and s bt2 + t = u - sigma, component i of `quad`
    # is (u p_i + sigma r_i) (A_i - sigma dq_i) / D_i, where
    # dq_i = delta_i q_i, A_i = dq_i u + w_i and D_i = 1 + u delta_i.
    dq = delta * q_proj
    rdq = r_proj * dq

    def F(s, t, lattice=None):
        if phi is None:
            return per_node(s, t)
        if lattice is None:
            raise ValueError("the factor of s + t needs invert_2d's lattice")
        size, make_u, view = lattice
        # A key costs the per-key form about what a node costs the loop,
        # and each of its nodes about half that: at 6,241 keys per 18,721
        # nodes it took 23-26% less time, at 12,385 0-21% more.
        if 2 * size > np.broadcast(s, t).size:
            # the lattice and factor, made once the loop's temporaries are
            # gone, multiply in place in the written order (the other rounds
            # differently)
            grid = per_node(s, t)
            grid *= view(phi(make_u()))
            return grid
        # per key: the coefficients of 1, sigma and sigma^2 in -quad, and
        # factor / prod_i D_i; per node: one quadratic in sigma and one exp
        u = make_u()
        e0, e1, e2 = (np.zeros_like(u) for _ in range(3))
        den = np.ones_like(u)
        for i in range(eff.K):
            D = 1.0 + u * delta[i]
            A = dq[i] * u + w_proj[i]
            up = u * p_proj[i]
            e0 -= up * A / D
            e1 += (up * dq[i] - r_proj[i] * A) / D
            e2 += rdq[i] / D
            den *= D
        sigma = s * b2
        # C order, as every other grid: numpy would follow the view's
        # strides, which are smallest along s when T1 > T2
        grid = np.multiply(sigma, view(e2), order="C")
        grid += view(e1)
        grid *= sigma
        grid += view(e0)
        _exp(grid)
        grid *= view(phi(u) / den)
        grid *= 1.0 / s
        grid *= 1.0 / t
        return grid

    return F


class _NearJoint:
    """Near-user outage of one link as a function of (R_k, R_kt).

    `_outage` decides every rate pair; this keeps only what the rates do
    not change: the user's (noise, phi) from `_user_law`, conditional or
    averaged over `policy`, the link's 2D transform of the joint (SIC,
    own-message) success event with that factor, built on first use and
    handed the s + t lattice where there is a factor, and its most
    recently used transform grids (`invert_2d`'s `grids`).  Rates whose
    abscissae fall on the same period-ladder rungs share a grid, and the
    value is bit-identical to a fresh evaluation.  The joint inversion, at
    `cfg` (which only `near_outage_conditional_exact` passes; the default
    `Inversion2DConfig` otherwise), reaches `_outage` as its `joint`; the
    stages' 1D marginals use the default `Inversion1DConfig`.
    """

    def __init__(self, eff: EffectiveChannel, pair: PairConfig,
                 params: NetworkParams, cfg: Inversion2DConfig | None = None,
                 policy: GroupingPolicy | None = None,
                 interference_limited: bool = False):
        self.eff, self.pair, self.cfg = eff, pair, cfg
        self.noise, self.phi = _user_law(eff, pair, params, False, policy,
                                         interference_limited)
        self.transform = None
        self.grids: dict = {}

    def __call__(self, R_k: float, R_kt: float) -> OutageResult:
        eff, pair = self.eff, self.pair.with_rates(R_k, R_kt)
        theta_sic, theta_own = _near_abscissae(eff, pair, self.noise)

        def joint():
            if self.transform is None:
                self.transform = _near_joint_transform(eff, pair, self.phi)
            return invert_2d(self.transform, theta_sic, theta_own, self.cfg,
                             grids=self.grids, lattice=self.phi is not None)

        stages = _near_stages(eff, pair, theta_sic, theta_own)
        return _outage(eff, pair, stages, self.phi, None, joint)


def near_outage_conditional_exact(eff: EffectiveChannel, pair: PairConfig,
                                  params: NetworkParams,
                                  cfg: Inversion2DConfig | None = None
                                  ) -> OutageResult:
    """Near-user outage of the joint (SIC, own-message) success event."""
    return _NearJoint(eff, pair, params, cfg)(pair.R_k, pair.R_kt)


def near_outage_conditional_approx(eff: EffectiveChannel, pair: PairConfig,
                                   params: NetworkParams,
                                   cfg: Inversion1DConfig | None = None
                                   ) -> OutageResult:
    """Near-user outage neglecting the correlation of the two SIC stages.

    Upper-bounds the exact probability; each stage is a 1D inversion with
    the appropriately substituted mean vector and threshold.
    """
    noise, phi = _user_law(eff, pair, params, far=False)
    stages = _near_stages(eff, pair, *_near_abscissae(eff, pair, noise))
    return _outage(eff, pair, stages, phi, cfg)


def single_stream_outage_conditional(eff: EffectiveChannel, rate: float,
                                     d: float, params: NetworkParams,
                                     cfg: Inversion1DConfig | None = None
                                     ) -> OutageResult:
    """Outage of an exclusively scheduled stream (no power-domain sharing).

    Used by the orthogonal-access baselines: the stream carries full power,
    so only the estimation error on the own stream and the other pairs'
    streams interfere.
    """
    theta = eff.own_gain2 * _inv_snr_gap(rate) - eff.noise(d, params)
    phi = _interference_phi(eff.omega, d, params)
    return _outage(eff, None, ((0.0, theta),), phi, cfg)


def near_outage_average(eff: EffectiveChannel, pair: PairConfig,
                        params: NetworkParams, policy: GroupingPolicy, *,
                        interference_limited: bool = False) -> OutageResult:
    """Near-user outage averaged over the policy's serving-distance law.

    The same joint evaluation as `near_outage_conditional_exact`, at the
    default `Inversion2DConfig`, with the distance-averaged factor of s + t
    in place of the conditional one; the joint transform evaluates it once
    per distinct s + t.
    """
    joint = _NearJoint(eff, pair, params, policy=policy,
                       interference_limited=interference_limited)
    return joint(pair.R_k, pair.R_kt)
