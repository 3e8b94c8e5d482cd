"""Outage probability assembly.

Reduces a (channel estimate, precoder, filter) triple to the effective
post-filter quantities, then evaluates far-user outage by 1D inversion and
near-user outage (joint SIC success) by 2D inversion, conditionally on the
link distances or averaged over a grouping policy's distance law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import GroupingPolicy, distance_mixture, interference_coefficient, \
    policy_laplace_factor
from .laplace import Inversion1DConfig, Inversion2DConfig, invert_1d, invert_2d
from .model import ChannelEstimate, NetworkParams, PairConfig

__all__ = [
    "EffectiveChannel",
    "OutageThresholds",
    "OutageResult",
    "OutageReport",
    "effective_channel",
    "outage_thresholds",
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

    `mu[i] = u^H H_hat v_i` are the known effective gains, `Sigma` the
    covariance of the filtered error vector u^H E V with eigensystem
    (delta, Psi) sorted by descending eigenvalue, `omega` the interference
    coefficient of the filter and `sigma_u2` the filtered noise power.
    """

    mu: np.ndarray
    Sigma: np.ndarray
    delta: np.ndarray
    Psi: np.ndarray
    omega: float
    sigma_u2: float
    sigma_h2: float

    @property
    def K(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class OutageThresholds:
    """SINR-derived inversion abscissae for one pair.

    Bar variants drop the noise term and are used by the distance-averaged
    expressions, where noise is absorbed into the distance functional.
    """

    tau_kt: float
    theta_k: float
    theta_kt: float
    tau_kt_bar: float
    theta_k_bar: float
    theta_kt_bar: float


@dataclass(frozen=True)
class OutageResult:
    """Clamped probability plus the raw inversion value and quality flag."""

    probability: float
    raw: float
    method: str
    flag: str | None = None

    def __float__(self) -> float:
        return self.probability


@dataclass(frozen=True)
class OutageReport:
    """Aggregated per-pair outage/goodput summary for one evaluation point."""

    p_far: float
    p_near: float
    method: str
    goodput: float | None = None
    stderr_far: float | None = None
    stderr_near: float | None = None


def effective_channel(est: ChannelEstimate, V: np.ndarray, u: np.ndarray,
                      params: NetworkParams) -> EffectiveChannel:
    """Reduce (estimate, precoder, receive filter) to effective-link form."""
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
        Sigma=Sigma,
        delta=delta,
        Psi=Psi,
        omega=interference_coefficient(u, params),
        sigma_u2=params.sigma2 * float(np.linalg.norm(u) ** 2),
        sigma_h2=est.sigma_h2,
    )


def _inv_snr_gap(rate: float) -> float:
    """1 / (2^R - 1); a zero rate makes the success event certain."""
    return 1.0 / (2.0 ** rate - 1.0) if rate > 0.0 else math.inf


def outage_thresholds(eff_near: EffectiveChannel, eff_far: EffectiveChannel,
                      pair: PairConfig, params: NetworkParams,
                      stream: int = 0) -> OutageThresholds:
    """All inversion abscissae of one pair (stream index 0-based)."""
    b2, bt2 = pair.beta_k2, pair.beta_kt2
    mu_far2 = abs(eff_far.mu[stream]) ** 2
    mu_near2 = abs(eff_near.mu[stream]) ** 2
    tau_bar = (_inv_snr_gap(pair.R_kt) - b2) * bt2 * mu_far2
    th_k_bar = mu_near2 * b2 * _inv_snr_gap(pair.R_k)
    th_kt_bar = mu_near2 * bt2 * _inv_snr_gap(pair.R_kt)
    noise_far = eff_far.sigma_u2 / (params.P * params.path_loss(pair.d_kt))
    noise_near = eff_near.sigma_u2 / (params.P * params.path_loss(pair.d_k))
    return OutageThresholds(
        tau_kt=tau_bar - noise_far,
        theta_k=th_k_bar - noise_near,
        theta_kt=th_kt_bar - noise_near,
        tau_kt_bar=tau_bar,
        theta_k_bar=th_k_bar,
        theta_kt_bar=th_kt_bar,
    )


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


def _scaled_vector(mu: np.ndarray, stream: int, scale: float) -> np.ndarray:
    nu = mu.copy()
    nu[stream] = scale * nu[stream]
    return nu


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


def _success_1d(eff: EffectiveChannel, nu: np.ndarray, tau: float, phi_fn,
                cfg: Inversion1DConfig, phi_trivial: bool = False) -> float:
    zeta2 = np.abs(eff.Psi.conj().T @ nu) ** 2
    if phi_trivial:
        certain = _concentration_margin(zeta2, eff.delta, tau)
        if certain is not None:
            return certain
    return invert_1d(_quadform_transform_1d(zeta2, eff.delta, phi_fn), tau, cfg)


def _interference_phi(omega: float, d: float, params: NetworkParams):
    """Interference factor of the conditional transforms; the second return
    marks an interference-free network (constant factor 1)."""
    expo = 2.0 / params.alpha
    coeff = math.pi * params.lambda_b * omega * d * d
    return (lambda s: np.exp(-coeff * s ** expo)), coeff == 0.0


def _clamp(raw: float, method: str, flag: str | None = None) -> OutageResult:
    return OutageResult(min(max(raw, 0.0), 1.0), raw, method, flag)


def far_outage_conditional(eff: EffectiveChannel, pair: PairConfig,
                           params: NetworkParams,
                           cfg: Inversion1DConfig | None = None,
                           stream: int = 0) -> OutageResult:
    """Far-user outage given the channel state and link distance."""
    cfg = cfg or Inversion1DConfig()
    method = "far-exact-conditional"
    if not pair.feasible:
        return OutageResult(1.0, 1.0, method, "infeasible_rate_split")
    th = outage_thresholds(eff, eff, pair, params, stream)
    if math.isinf(th.tau_kt):
        return OutageResult(0.0, 0.0, method)
    if th.tau_kt <= 0.0:
        return OutageResult(1.0, 1.0, method, "nonpositive_threshold")
    nu = _scaled_vector(eff.mu, stream, pair.beta_k2)
    phi, trivial = _interference_phi(eff.omega, pair.d_kt, params)
    q = _success_1d(eff, nu, th.tau_kt, phi, cfg, phi_trivial=trivial)
    return _clamp(1.0 - q, method)


def far_outage_average(eff: EffectiveChannel, pair: PairConfig,
                       params: NetworkParams, policy: GroupingPolicy,
                       cfg: Inversion1DConfig | None = None,
                       stream: int = 0,
                       interference_limited: bool = False) -> OutageResult:
    """Far-user outage averaged over the policy's serving-distance law."""
    cfg = cfg or Inversion1DConfig()
    method = f"far-average-{policy.variant}"
    if not pair.feasible:
        return OutageResult(1.0, 1.0, method, "infeasible_rate_split")
    th = outage_thresholds(eff, eff, pair, params, stream)
    if math.isinf(th.tau_kt_bar):
        return OutageResult(0.0, 0.0, method)
    if th.tau_kt_bar <= 0.0:
        return OutageResult(1.0, 1.0, method, "nonpositive_threshold")
    rank = pair.r_kt if policy.variant == "distance" else 2
    mixture = distance_mixture(rank, policy.order_total(params.K))
    sigma_u2 = 0.0 if interference_limited else eff.sigma_u2

    def phi(s):
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        out = np.array([policy_laplace_factor(si, mixture, eff.omega,
                                              sigma_u2, params) for si in s])
        return out

    nu = _scaled_vector(eff.mu, stream, pair.beta_k2)
    q = _success_1d(eff, nu, th.tau_kt_bar, phi, cfg)
    return _clamp(1.0 - q, method)


def _near_joint_transform(eff: EffectiveChannel, pair: PairConfig, stream: int,
                          phi_of_sum):
    """Two-variable success transform of the joint SIC event.

    The diagonal scaling matrices of the two stacked quadratic forms enter
    only through a handful of projections onto the error eigenbasis, which
    are precomputed so the transform evaluates on full grids at once.
    `phi_of_sum` maps the combined variable s + t to the interference (or
    distance-averaged) factor.
    """
    mu, delta, Psi = eff.mu, eff.delta, eff.Psi
    b2, bt2 = pair.beta_k2, pair.beta_kt2
    k = stream
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
        phi_int = phi_of_sum(u)
        u_exp = u[..., None]
        denom = 1.0 + u_exp * delta
        left = u_exp * p_proj + (s * b2)[..., None] * r_proj
        right = delta * (s * bt2 + t)[..., None] * q_proj + w_proj
        quad = np.sum(left * right / denom, axis=-1)
        return np.exp(-quad) * phi_int / (s * t * np.prod(denom, axis=-1))

    return F


def _phi_on_unique(fn):
    """Wrap a scalar function of s + t so grid evaluation hits each distinct
    anti-diagonal value once (real part is constant on the grid)."""
    def apply(u):
        u = np.asarray(u, dtype=complex)
        keys = np.round(u.imag, 9).reshape(-1)
        _, first_idx, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
        flat = u.reshape(-1)
        vals = np.array([fn(ui) for ui in flat[first_idx]])
        return vals[inverse.reshape(-1)].reshape(u.shape)

    return apply


def _near_marginal_if_trivial(eff: EffectiveChannel, pair: PairConfig,
                              params: NetworkParams, theta_sic: float,
                              theta_own: float, phi_fn, method: str,
                              stream: int,
                              cfg1d: Inversion1DConfig | None = None,
                              phi_trivial: bool = False):
    """Reduce the joint event to a 1D marginal when a zero rate makes one
    stage certain; returns None when both constraints are active."""
    sic_trivial = math.isinf(theta_sic)
    own_trivial = math.isinf(theta_own)
    if not sic_trivial and not own_trivial:
        return None
    cfg1d = cfg1d or Inversion1DConfig()
    if sic_trivial and own_trivial:
        return OutageResult(0.0, 0.0, method)
    if sic_trivial:
        nu = _scaled_vector(eff.mu, stream, 0.0)
        q = _success_1d(eff, nu, theta_own, phi_fn, cfg1d,
                        phi_trivial=phi_trivial)
    else:
        nu = _scaled_vector(eff.mu, stream, pair.beta_k2)
        shift = pair.beta_k2 * pair.beta_kt2 * abs(eff.mu[stream]) ** 2
        tau = theta_sic - shift
        if tau <= 0.0:
            return OutageResult(1.0, 1.0, method, "nonpositive_threshold")
        q = _success_1d(eff, nu, tau, phi_fn, cfg1d, phi_trivial=phi_trivial)
    return _clamp(1.0 - q, method)


def _near_joint_concentration(eff: EffectiveChannel, pair: PairConfig,
                              stream: int, theta_sic: float, theta_own: float):
    """Deterministic outcome of the joint event when both quadratic forms sit
    far outside their spread bands (interference-free networks only)."""
    shift = pair.beta_k2 * pair.beta_kt2 * abs(eff.mu[stream]) ** 2
    nu1 = _scaled_vector(eff.mu, stream, pair.beta_k2)
    nu2 = _scaled_vector(eff.mu, stream, 0.0)
    z1 = np.abs(eff.Psi.conj().T @ nu1) ** 2
    z2 = np.abs(eff.Psi.conj().T @ nu2) ** 2
    c1 = _concentration_margin(z1, eff.delta, theta_sic - shift)
    c2 = _concentration_margin(z2, eff.delta, theta_own)
    if c1 == 0.0 or c2 == 0.0:
        return 1.0
    if c1 == 1.0 and c2 == 1.0:
        return 0.0
    return None


def near_outage_conditional_exact(eff: EffectiveChannel, pair: PairConfig,
                                  params: NetworkParams,
                                  cfg: Inversion2DConfig | None = None,
                                  stream: int = 0) -> OutageResult:
    """Near-user outage of the joint (SIC, own-message) success event."""
    cfg = cfg or Inversion2DConfig()
    method = "near-exact-conditional"
    th = outage_thresholds(eff, eff, pair, params, stream)
    if th.theta_k <= 0.0 or th.theta_kt <= 0.0:
        return OutageResult(1.0, 1.0, method, "nonpositive_threshold")
    phi, trivial = _interference_phi(eff.omega, pair.d_k, params)
    reduced = _near_marginal_if_trivial(eff, pair, params, th.theta_kt,
                                        th.theta_k, phi, method, stream,
                                        phi_trivial=trivial)
    if reduced is not None:
        return reduced
    if trivial:
        certain = _near_joint_concentration(eff, pair, stream, th.theta_kt,
                                            th.theta_k)
        if certain is not None:
            return OutageResult(certain, certain, method)
    F = _near_joint_transform(eff, pair, stream, phi)
    q, info = invert_2d(F, th.theta_kt, th.theta_k, cfg, full_output=True)
    flag = "epsilon_degraded" if info["epsilon_degraded"] else None
    return _clamp(1.0 - q, method, flag)


def near_outage_conditional_approx(eff: EffectiveChannel, pair: PairConfig,
                                   params: NetworkParams,
                                   cfg: Inversion1DConfig | None = None,
                                   stream: int = 0) -> OutageResult:
    """Near-user outage neglecting the correlation of the two SIC stages.

    Upper-bounds the exact probability; each stage is a 1D inversion with
    the appropriately substituted mean vector and threshold.
    """
    cfg = cfg or Inversion1DConfig()
    method = "near-approx-conditional"
    if not pair.feasible:
        return OutageResult(1.0, 1.0, method, "infeasible_rate_split")
    th = outage_thresholds(eff, eff, pair, params, stream)
    mu_k2 = abs(eff.mu[stream]) ** 2
    tau_sic = th.theta_kt - pair.beta_k2 * pair.beta_kt2 * mu_k2
    phi, trivial = _interference_phi(eff.omega, pair.d_k, params)
    q_sic = q_own = 0.0
    if math.isinf(tau_sic):
        q_sic = 1.0
    elif tau_sic > 0.0:
        nu1 = _scaled_vector(eff.mu, stream, pair.beta_k2)
        q_sic = _success_1d(eff, nu1, tau_sic, phi, cfg, phi_trivial=trivial)
    if math.isinf(th.theta_k):
        q_own = 1.0
    elif th.theta_k > 0.0:
        nu2 = _scaled_vector(eff.mu, stream, 0.0)
        q_own = _success_1d(eff, nu2, th.theta_k, phi, cfg, phi_trivial=trivial)
    return _clamp(1.0 - q_sic * q_own, method)


def single_stream_outage_conditional(eff: EffectiveChannel, rate: float,
                                     d: float, params: NetworkParams,
                                     cfg: Inversion1DConfig | None = None,
                                     stream: int = 0) -> OutageResult:
    """Outage of an exclusively scheduled stream (no power-domain sharing).

    Used by the orthogonal-access baselines: the stream carries full power,
    so only the estimation error on the own stream and the other pairs'
    streams interfere.
    """
    cfg = cfg or Inversion1DConfig()
    method = "single-stream-conditional"
    if rate <= 0.0:
        return OutageResult(0.0, 0.0, method)
    mu_k2 = abs(eff.mu[stream]) ** 2
    noise = eff.sigma_u2 / (params.P * params.path_loss(d))
    theta = mu_k2 / (2.0 ** rate - 1.0) - noise
    if theta <= 0.0:
        return OutageResult(1.0, 1.0, method, "nonpositive_threshold")
    nu = _scaled_vector(eff.mu, stream, 0.0)
    phi, trivial = _interference_phi(eff.omega, d, params)
    q = _success_1d(eff, nu, theta, phi, cfg, phi_trivial=trivial)
    return _clamp(1.0 - q, method)


def near_outage_average(eff: EffectiveChannel, pair: PairConfig,
                        params: NetworkParams, policy: GroupingPolicy,
                        cfg: Inversion2DConfig | None = None,
                        stream: int = 0,
                        interference_limited: bool = False) -> OutageResult:
    """Near-user outage averaged over the policy's serving-distance law."""
    cfg = cfg or Inversion2DConfig()
    method = f"near-average-{policy.variant}"
    th = outage_thresholds(eff, eff, pair, params, stream)
    if th.theta_k_bar <= 0.0 or th.theta_kt_bar <= 0.0:
        return OutageResult(1.0, 1.0, method, "nonpositive_threshold")
    rank = pair.r_k if policy.variant == "distance" else 1
    mixture = distance_mixture(rank, policy.order_total(params.K))
    sigma_u2 = 0.0 if interference_limited else eff.sigma_u2
    phi = _phi_on_unique(
        lambda u: policy_laplace_factor(u, mixture, eff.omega, sigma_u2, params))
    reduced = _near_marginal_if_trivial(eff, pair, params, th.theta_kt_bar,
                                        th.theta_k_bar, phi, method, stream)
    if reduced is not None:
        return reduced
    F = _near_joint_transform(eff, pair, stream, phi)
    # Tie the sampling periods so the distance functional is evaluated
    # once per anti-diagonal instead of once per grid node.
    cfg = replace(cfg, square_period=True)
    q, info = invert_2d(F, th.theta_kt_bar, th.theta_k_bar, cfg, full_output=True)
    flag = "epsilon_degraded" if info["epsilon_degraded"] else None
    return _clamp(1.0 - q, method, flag)
