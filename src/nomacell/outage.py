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
`_outage` inverts the stages one at a time (their product is the
stage-independence approximation for the near user); `_NearJoint`
inverts the exact joint SIC event in 2D.
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OutageResult:
    """Clamped probability plus the raw inversion value and quality flag."""

    probability: float
    raw: float
    flag: str | None = None

    def __float__(self) -> float:
        return self.probability


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
    """(scale, tau) of the far user's decoding stage; `noise` is
    `eff.noise(d_kt, params)`, or 0 where the distance average carries it."""
    tau = (_inv_snr_gap(pair.R_kt) - pair.beta_k2) * pair.beta_kt2 * eff.own_gain2
    return pair.beta_k2, tau - noise


def _near_abscissae(eff: EffectiveChannel, pair: PairConfig, noise: float):
    """(theta_sic, theta_own) of the near user; `noise` as in `_far_stage`
    at d_k."""
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


def _quadform_transform_1d(zeta2: np.ndarray, delta: np.ndarray, phi_fn):
    """Success-probability transform of a noncentral Gaussian quadratic form.

    F(s) = prod_i exp(-s zeta2_i / (1 + s delta_i)) * phi(s)
           / (s prod_i (1 + s delta_i))
    where phi carries the interference (and, for averages, distance/noise)
    factor.
    """
    def F(s):
        s = np.asarray(s, dtype=complex)
        d = 1.0 + np.multiply.outer(s, delta)
        expo = -np.sum(np.multiply.outer(s, zeta2) / d, axis=-1)
        return np.exp(expo) * phi_fn(s) / (s * np.prod(d, axis=-1))

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


def _interference_phi(omega: float, d: float, params: NetworkParams):
    """Interference factor of the conditional transforms; the second return
    marks an interference-free network, where the factor is the constant 1
    (exactly what exp(-0 s^(2/alpha)) gives, without the complex power)."""
    expo = 2.0 / params.alpha
    coeff = math.pi * params.lambda_b * omega * d * d
    if coeff == 0.0:
        return (lambda s: 1.0), True
    return (lambda s: np.exp(-coeff * s ** expo)), False


def _clamp(raw: float, flag: str | None = None) -> OutageResult:
    return OutageResult(min(max(raw, 0.0), 1.0), raw, flag)


def _outage(eff: EffectiveChannel, pair: PairConfig | None, stages, phi,
            trivial: bool, cfg: Inversion1DConfig | None) -> OutageResult:
    """Outage of independent stages: 1 - prod of the stage successes.

    An infeasible rate split (`pair` is None for an exclusively scheduled
    stream) or a nonpositive threshold makes outage certain (flagged); an
    infinite threshold (zero rate) makes its stage succeed.  With `trivial`
    (no interference) a stage whose threshold sits far outside the form's
    spread band is decided without inversion.
    """
    if pair is not None and not pair.feasible:
        return OutageResult(1.0, 1.0, "infeasible_rate_split")
    if any(tau <= 0.0 for _, tau in stages):
        return OutageResult(1.0, 1.0, "nonpositive_threshold")
    q = 1.0
    for scale, tau in stages:
        if tau == math.inf:
            continue
        zeta2 = _projected_mean(eff, scale)
        q_stage = _concentration_margin(zeta2, eff.delta, tau) if trivial else None
        if q_stage is None:
            q_stage = invert_1d(_quadform_transform_1d(zeta2, eff.delta, phi),
                                tau, cfg)
        q *= q_stage
    return _clamp(1.0 - q)


def far_outage_conditional(eff: EffectiveChannel, pair: PairConfig,
                           params: NetworkParams,
                           cfg: Inversion1DConfig | None = None) -> OutageResult:
    """Far-user outage given the channel state and link distance."""
    stage = _far_stage(eff, pair, eff.noise(pair.d_kt, params))
    phi, trivial = _interference_phi(eff.omega, pair.d_kt, params)
    return _outage(eff, pair, (stage,), phi, trivial, cfg)


def far_outage_average(eff: EffectiveChannel, pair: PairConfig,
                       params: NetworkParams, policy: GroupingPolicy,
                       cfg: Inversion1DConfig | None = None,
                       interference_limited: bool = False) -> OutageResult:
    """Far-user outage averaged over the policy's serving-distance law."""
    rank = pair.r_kt if policy.variant == "distance" else 2
    mixture = distance_mixture(rank, policy.order_total(params.K))
    sigma_u2 = 0.0 if interference_limited else eff.sigma_u2

    def phi(s):
        return policy_laplace_factor(s, mixture, eff.omega, sigma_u2, params)

    return _outage(eff, pair, (_far_stage(eff, pair, 0.0),), phi, False, cfg)


def _near_joint_transform(eff: EffectiveChannel, pair: PairConfig, phi_of_sum):
    """Two-variable success transform of the joint SIC event.

    The diagonal scaling matrices of the two stacked quadratic forms enter
    only through a handful of projections onto the error eigenbasis, which
    are precomputed.  The transform then loops over the K eigencomponents,
    each term evaluated on a whole (s, t) grid at once, accumulating the
    exponent and the product s t prod_i (1 + (s + t) delta_i).
    `phi_of_sum` maps the combined variable s + t to the interference (or
    distance-averaged) factor.
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

    def F(s, t):
        s = np.asarray(s, dtype=complex)
        t = np.asarray(t, dtype=complex)
        u = s + t
        s_b2 = s * b2
        s_bt2_t = s * bt2 + t
        quad, den = 0.0, s * t
        for i in range(eff.K):
            denom = 1.0 + u * delta[i]
            left = u * p_proj[i] + s_b2 * r_proj[i]
            right = delta[i] * s_bt2_t * q_proj[i] + w_proj[i]
            quad = quad + left * right / denom
            den = den * denom
        return np.exp(-quad) * phi_of_sum(u) / den

    return F


class _NearJoint:
    """Outage of the joint (SIC, own-message) success event of one link at
    any rates, on its power split, distance and interference factor.

    Calling it with (R_k, R_kt) evaluates the pair at those rates.  The
    link's 2D transform does not depend on the rates, so the evaluator
    builds it once and keeps its most recently used transform grids
    (`invert_2d`'s `grids`); rates whose abscissae fall on the same
    period-ladder rungs share a grid, and the value is bit-identical to a
    fresh evaluation.
    `_outage` decides an infeasible split or a nonpositive abscissa, and
    takes a zero rate, which makes one stage certain and reduces the event
    to the other stage's 1D marginal; without interference, forms far
    outside their spread bands decide the event without inversion.
    """

    def __init__(self, eff: EffectiveChannel, pair: PairConfig, noise: float,
                 phi, trivial: bool, cfg: Inversion2DConfig | None):
        self.eff, self.pair, self.noise = eff, pair, noise
        self.phi, self.trivial, self.cfg = phi, trivial, cfg
        self.transform = None
        self.grids: dict = {}

    def __call__(self, R_k: float, R_kt: float) -> OutageResult:
        eff, pair = self.eff, self.pair.with_rates(R_k, R_kt)
        theta_sic, theta_own = _near_abscissae(eff, pair, self.noise)
        stages = _near_stages(eff, pair, theta_sic, theta_own)
        if (not pair.feasible or theta_sic <= 0.0 or theta_own <= 0.0
                or math.inf in (theta_sic, theta_own)):
            return _outage(eff, pair, stages, self.phi, self.trivial, None)
        if self.trivial:
            certain = [_concentration_margin(_projected_mean(eff, scale),
                                             eff.delta, tau)
                       for scale, tau in stages]
            if 0.0 in certain:
                return OutageResult(1.0, 1.0)
            if certain == [1.0, 1.0]:
                return OutageResult(0.0, 0.0)
        if self.transform is None:
            self.transform = _near_joint_transform(eff, pair, self.phi)
        q, info = invert_2d(self.transform, theta_sic, theta_own, self.cfg,
                            full_output=True, grids=self.grids)
        flag = "epsilon_degraded" if info["epsilon_degraded"] else None
        return _clamp(1.0 - q, flag)


def _near_exact_evaluator(eff: EffectiveChannel, pair: PairConfig,
                          params: NetworkParams,
                          cfg: Inversion2DConfig | None = None) -> _NearJoint:
    """`near_outage_conditional_exact` of one link as a function of
    (R_k, R_kt) that reuses transform grids across calls."""
    phi, trivial = _interference_phi(eff.omega, pair.d_k, params)
    return _NearJoint(eff, pair, eff.noise(pair.d_k, params), phi, trivial,
                      cfg)


def near_outage_conditional_exact(eff: EffectiveChannel, pair: PairConfig,
                                  params: NetworkParams,
                                  cfg: Inversion2DConfig | None = None
                                  ) -> OutageResult:
    """Near-user outage of the joint (SIC, own-message) success event."""
    return _near_exact_evaluator(eff, pair, params, cfg)(pair.R_k, pair.R_kt)


def near_outage_conditional_approx(eff: EffectiveChannel, pair: PairConfig,
                                   params: NetworkParams,
                                   cfg: Inversion1DConfig | None = None
                                   ) -> OutageResult:
    """Near-user outage neglecting the correlation of the two SIC stages.

    Upper-bounds the exact probability; each stage is a 1D inversion with
    the appropriately substituted mean vector and threshold.
    """
    stages = _near_stages(eff, pair, *_near_abscissae(
        eff, pair, eff.noise(pair.d_k, params)))
    phi, trivial = _interference_phi(eff.omega, pair.d_k, params)
    return _outage(eff, pair, stages, phi, trivial, cfg)


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
    phi, trivial = _interference_phi(eff.omega, d, params)
    return _outage(eff, None, ((0.0, theta),), phi, trivial, cfg)


def near_outage_average(eff: EffectiveChannel, pair: PairConfig,
                        params: NetworkParams, policy: GroupingPolicy,
                        cfg: Inversion2DConfig | None = None,
                        interference_limited: bool = False) -> OutageResult:
    """Near-user outage averaged over the policy's serving-distance law.

    The same joint evaluation as `near_outage_conditional_exact`, with the
    distance-averaged factor of s + t in place of the conditional one.
    The factor is evaluated one grid row at a time: on the whole grid, the
    exp-sinh rule's intermediates (one value per node and grid point)
    would raise peak memory by about 120 MB.
    """
    rank = pair.r_k if policy.variant == "distance" else 1
    mixture = distance_mixture(rank, policy.order_total(params.K))
    sigma_u2 = 0.0 if interference_limited else eff.sigma_u2

    def phi(u):
        return np.stack([policy_laplace_factor(row, mixture, eff.omega,
                                               sigma_u2, params)
                         for row in u])

    return _NearJoint(eff, pair, 0.0, phi, False, cfg)(pair.R_k, pair.R_kt)
