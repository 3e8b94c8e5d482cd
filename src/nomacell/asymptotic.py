"""Chernoff outage bounds and vanishing-uncertainty rate thresholds.

Valid in the interference-free regime (lambda_b = 0): as the error variance
shrinks, conditional outage drops to zero exactly when the target rates stay
below per-realization thresholds.  The bounds use the stage model of
`nomacell.outage`: one Chernoff term per decoding stage (scale, tau),
summed over the stages (a union bound for the near user's two).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkParams, PairConfig
from .outage import EffectiveChannel, _far_stage, _near_abscissae, \
    _near_stages, _projected_mean

__all__ = [
    "RateThresholds",
    "chernoff_far_bound",
    "chernoff_near_bound",
    "optimize_chernoff_far",
    "optimize_chernoff_near",
    "rate_thresholds",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RateThresholds:
    """Per-realization rate bounds below which outage vanishes as the
    channel uncertainty does (bps/Hz; inf when a denominator vanishes)."""

    R_kt_max_far: float
    R_kt_max_near: float
    R_k_max_near: float


def _normalized_eigs(eff: EffectiveChannel) -> np.ndarray:
    """Eigenvalues of the error covariance with sigma_h2 factored out."""
    if eff.sigma_h2 <= 0:
        raise ValueError("Chernoff bounds require sigma_h2 > 0")
    return eff.delta / eff.sigma_h2


def _chernoff(eff: EffectiveChannel, stages, s: float) -> float:
    """Sum over the stages of the Chernoff bound on each stage's failure.

    `s` is the normalized exponent parameter, admissible on
    (0, 1 / max_i upsilon_i).
    """
    ups = _normalized_eigs(eff)
    s_sup = 1.0 / ups.max() if ups.max() > 0 else math.inf
    if not 0.0 < s < s_sup:
        raise ValueError(f"Chernoff parameter must lie in (0, {s_sup:.6g})")
    log_pref = -np.sum(np.log1p(-s * ups))
    total = 0.0
    for scale, tau in stages:
        margin = tau + np.sum(_projected_mean(eff, scale) / (s * ups - 1.0))
        total += np.exp(min(log_pref - s / eff.sigma_h2 * margin, 700.0))
    return float(total)


def chernoff_far_bound(eff: EffectiveChannel, pair: PairConfig,
                       params: NetworkParams, s_bar: float) -> float:
    """Chernoff upper bound on the far-user conditional outage at lambda_b=0.

    `s_bar` is the normalized exponent parameter, admissible on
    (0, 1 / max_i upsilon_i).
    """
    stage = _far_stage(eff, pair, eff.noise(pair.d_kt, params))
    return _chernoff(eff, (stage,), s_bar)


def chernoff_near_bound(eff: EffectiveChannel, pair: PairConfig,
                        params: NetworkParams, s_hat: float) -> float:
    """Chernoff + union upper bound on the near-user conditional outage."""
    thetas = _near_abscissae(eff, pair, eff.noise(pair.d_k, params))
    return _chernoff(eff, _near_stages(eff, pair, *thetas), s_hat)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10,
                max_iter: int = 200):
    """Golden-section minimization on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol * (abs(a) + abs(b) + 1e-30):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _optimize(bound, eff: EffectiveChannel, pair: PairConfig,
              params: NetworkParams) -> tuple[float, float]:
    """Minimize a Chernoff bound over its free parameter.

    Returns (bound, s).  The admissible interval is searched with a 1e-6
    relative boundary margin.
    """
    ups = _normalized_eigs(eff)
    if ups.max() <= 0:
        raise ValueError("degenerate error covariance: no free parameter range")
    s_sup = 1.0 / ups.max()
    lo, hi = 1e-6 * s_sup, (1.0 - 1e-6) * s_sup
    s_best, val = _golden_min(
        lambda s: bound(eff, pair, params, s), lo, hi)
    return val, s_best


def optimize_chernoff_far(eff: EffectiveChannel, pair: PairConfig,
                          params: NetworkParams) -> tuple[float, float]:
    """Minimize the far-user Chernoff bound; returns (bound, s_bar)."""
    return _optimize(chernoff_far_bound, eff, pair, params)


def optimize_chernoff_near(eff: EffectiveChannel, pair: PairConfig,
                           params: NetworkParams) -> tuple[float, float]:
    """Minimize the near-user Chernoff bound; returns (bound, s_hat)."""
    return _optimize(chernoff_near_bound, eff, pair, params)


def rate_thresholds(eff_far: EffectiveChannel, eff_near: EffectiveChannel,
                    pair: PairConfig, params: NetworkParams) -> RateThresholds:
    """Rate bounds of the vanishing-uncertainty regime (lambda_b = 0).

    Below these bounds (strictly) the conditional outage of the respective
    decoding stage decays to zero as sigma_h2 -> 0; above the far bound it
    climbs to one.
    """
    b2, bt2 = pair.beta_k2, pair.beta_kt2
    noise_far = eff_far.noise(pair.d_kt, params)
    noise_near = eff_near.noise(pair.d_k, params)

    mu_far2 = eff_far.own_gain2
    zeta2 = _projected_mean(eff_far, b2)
    denom_far = zeta2.sum() + b2 * bt2 * mu_far2 + noise_far
    far = math.log2(1.0 + bt2 * mu_far2 / denom_far) if denom_far > 0 else math.inf

    mu_near2 = eff_near.own_gain2
    proj1 = _projected_mean(eff_near, b2)
    proj2 = _projected_mean(eff_near, 0.0)
    denom_sic = proj1.sum() + b2 * bt2 * mu_near2 + noise_near
    denom_own = proj2.sum() + noise_near
    near_sic = math.log2(1.0 + bt2 * mu_near2 / denom_sic) if denom_sic > 0 else math.inf
    near_own = math.log2(1.0 + b2 * mu_near2 / denom_own) if denom_own > 0 else math.inf
    return RateThresholds(far, near_sic, near_own)
