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
    "optimize_chernoff_far",
    "optimize_chernoff_near",
    "rate_thresholds",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200


@dataclass(frozen=True, slots=True)
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


def _chernoff(eff: EffectiveChannel, stages):
    """The sum over the stages of the Chernoff bound on each stage's
    failure, as a function of the normalized exponent parameter s, and the
    supremum of its admissible interval (0, 1 / max_i upsilon_i).

    The eigenvalues and each stage's projected mean do not depend on s and
    are computed here, once, as Python floats: the bound takes a handful
    of terms per call, where numpy's per-call overhead would dominate.
    """
    ups = _normalized_eigs(eff).tolist()
    s_sup = 1.0 / max(ups) if max(ups) > 0 else math.inf
    terms = [(float(tau), list(zip(_projected_mean(eff, scale).tolist(), ups)))
             for scale, tau in stages]
    sigma_h2 = float(eff.sigma_h2)

    def bound(s: float) -> float:
        if not 0.0 < s < s_sup:
            raise ValueError(f"Chernoff parameter must lie in (0, {s_sup:.6g})")
        log_pref = -sum(math.log1p(-s * u) for u in ups)
        total = 0.0
        for tau, pairs in terms:
            margin = tau + sum(z / (s * u - 1.0) for z, u in pairs)
            total += math.exp(min(log_pref - s / sigma_h2 * margin, 700.0))
        return total

    return bound, s_sup


def _bound_stages(eff: EffectiveChannel, pair: PairConfig,
                  params: NetworkParams, far: bool):
    if far:
        return (_far_stage(eff, pair, eff.noise(pair.d_kt, params)),)
    thetas = _near_abscissae(eff, pair, eff.noise(pair.d_k, params))
    return _near_stages(eff, pair, *thetas)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section minimization on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
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


def _optimize(eff: EffectiveChannel, stages) -> tuple[float, float]:
    """Minimize the stages' Chernoff bound over its free parameter.

    Returns (bound, s).  The admissible interval is searched with a 1e-6
    relative boundary margin.
    """
    bound, s_sup = _chernoff(eff, stages)
    if s_sup == math.inf:
        raise ValueError("degenerate error covariance: no free parameter range")
    lo, hi = 1e-6 * s_sup, (1.0 - 1e-6) * s_sup
    s_best, val = _golden_min(bound, lo, hi)
    return val, s_best


def optimize_chernoff_far(eff: EffectiveChannel, pair: PairConfig,
                          params: NetworkParams) -> tuple[float, float]:
    """Minimize the far-user Chernoff bound; returns (bound, s_bar)."""
    return _optimize(eff, _bound_stages(eff, pair, params, True))


def optimize_chernoff_near(eff: EffectiveChannel, pair: PairConfig,
                           params: NetworkParams) -> tuple[float, float]:
    """Minimize the near-user Chernoff bound; returns (bound, s_hat)."""
    return _optimize(eff, _bound_stages(eff, pair, params, False))


def rate_thresholds(eff_far: EffectiveChannel, eff_near: EffectiveChannel,
                    pair: PairConfig, params: NetworkParams) -> RateThresholds:
    """Rate bounds of the vanishing-uncertainty regime (lambda_b = 0).

    Below these bounds (strictly) the conditional outage of the respective
    decoding stage decays to zero as sigma_h2 -> 0; above the far bound it
    climbs to one.
    """
    def limit(eff, noise, scale, share):
        # one stage of `_far_stage` / `_near_stages` at zero error: signal
        # share |mu_k|^2 over the mean form, scale (1 - scale) |mu_k|^2 of
        # own-stream interference and the noise
        mu2 = eff.own_gain2
        denom = (_projected_mean(eff, scale).sum()
                 + scale * (1.0 - scale) * mu2 + noise)
        return math.log2(1.0 + share * mu2 / denom) if denom > 0 else math.inf

    b2, bt2 = pair.beta_k2, pair.beta_kt2
    noise_far = eff_far.noise(pair.d_kt, params)
    noise_near = eff_near.noise(pair.d_k, params)
    return RateThresholds(limit(eff_far, noise_far, b2, bt2),
                          limit(eff_near, noise_near, b2, bt2),
                          limit(eff_near, noise_near, 0.0, b2))
