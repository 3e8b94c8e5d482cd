"""Stochastic-geometry layer: serving-distance laws, the PPP interference
coefficient and the Laplace-functional machinery behind the grouping-policy
averages, whose distance integrals use one exp-sinh rule on a rotated ray."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkParams

__all__ = [
    "GroupingPolicy",
    "policy_laplace_factor",
]


@dataclass(frozen=True, slots=True)
class GroupingPolicy:
    """NOMA user-grouping policy.

    `random` pairs users uniformly: within a pair the near/far distances are
    the min/max of two i.i.d. serving distances.  `distance` ranks the 2K
    users of a cell by distance and pairs extremes first, so pair k carries
    ranking orders (k, 2K - k + 1).
    """

    variant: str = "random"

    def __post_init__(self):
        if self.variant not in ("random", "distance"):
            raise ValueError(f"unknown grouping policy {self.variant!r}")

    def ranks(self, pair_index: int, K: int) -> tuple[int, int]:
        """(near, far) ranking orders for the given pair under this policy."""
        if self.variant == "random":
            return 1, 2
        return pair_index, 2 * K - pair_index + 1

    def order_total(self, K: int) -> int:
        return 2 if self.variant == "random" else 2 * K


def _sample_serving_distances(params: NetworkParams, rng: np.random.Generator,
                              size=None) -> np.ndarray:
    """Inverse-CDF sampling of the serving-distance law."""
    u = rng.random(size=size)
    rate = params.c * params.lambda_b * math.pi
    return np.sqrt(-np.log1p(-u) / rate)


def _interference_coefficient(u: np.ndarray, params: NetworkParams) -> float:
    """Per-user interference coefficient of the PPP Laplace functional.

    Gamma(1 - 2/alpha) * ((rho_I / P) * |u^H 1|^2) ** (2/alpha); the filter
    direction enters only through its overlap with the all-ones vector.
    """
    u = np.asarray(u)
    overlap = abs(np.sum(np.conj(u))) ** 2
    return float(math.gamma(1.0 - 2.0 / params.alpha)
                 * (params.rho_I / params.P * overlap) ** (2.0 / params.alpha))


def _distance_mixture(rank: int, n_total: int) -> list[tuple[float, int]]:
    """Exponential-mixture representation of the rank-r distance law.

    In the squared-distance variable y = x^2 the ordered density is a signed
    mixture of exponentials with rates m * c * lambda_b * pi; returns the
    (coefficient, m) pairs.  Rank 1 of 2 is the random-policy near user,
    rank 2 of 2 the random-policy far user.
    """
    if not 1 <= rank <= n_total:
        raise ValueError(f"rank {rank} outside [1, {n_total}]")
    head = rank * math.comb(n_total, rank)
    terms = []
    for l in range(rank):
        coeff = head * (-1) ** l * math.comb(rank - 1, l)
        m = n_total - rank + l + 1
        terms.append((float(coeff), int(m)))
    return terms


def _exp_sinh_nodes(step: float, x_min: float = 1e-17, x_max: float = 60.0):
    """Exp-sinh rule x = exp(pi/2 sinh t) on [0, inf): nodes and weights at
    t = k * step, k integer, with x in [x_min, x_max]."""
    scale = 0.5 * math.pi
    lo, hi = (math.asinh(math.log(v) / scale) / step for v in (x_min, x_max))
    t = step * np.arange(math.ceil(lo), math.floor(hi) + 1)
    x = np.exp(scale * np.sinh(t))
    return x, step * scale * np.cosh(t) * x


# 179 nodes; a quarter step moves no tested integral by over 1.3e-15 relative
# (alpha 2.05 to 6).  The scaled integrand is below exp(-x / sqrt(2)), x >= 1,
# so the nodes past x = 60 (and below 1e-17) would add under 1e-18.
_STEP = 1.0 / 32.0
_NODES = _exp_sinh_nodes(_STEP)


def _mixture_integral(a, b, p: float, nodes=_NODES):
    """int_0^inf exp(-a z^p - b z) dz, elementwise over complex a and b.

    The contour turns onto the ray z = r e^{-i phi}, phi = (arg a + arg b)
    / (1 + p).  For a = const * s and arg b between 0 and arg s / p, both
    rotated coefficients keep |arg| <= |arg s| / (1 + p) < pi / (2 + alpha):
    the rotation is exact (Cauchy) and the integrand decays without
    oscillating.  The ray is scaled by sigma = max(|b|, |a|^(1/p)).

    The integrand e^u (cos v + i sin v) is summed in real arithmetic: with
    t = tan(-v / 2), cos v = (1 - t^2) / (1 + t^2) and sin v = -2 t / (1 + t^2),
    since numpy vectorizes real `exp` and `tan` where complex `exp`, `cos`
    and `sin` may go through scalar libm.  u and -v / 2 share one buffer:
    each fresh temporary of this size can cost its pages' faults again.
    """
    x, w = nodes
    phi = (np.angle(a) + np.angle(b)) / (1.0 + p)
    sigma = np.maximum(np.abs(b), np.abs(a) ** (1.0 / p))
    a_rot = (a * np.exp(-1j * p * phi) / sigma ** p)[..., None]
    b_rot = (b * np.exp(-1j * phi) / sigma)[..., None]
    # u + i v = -(a_rot x^p + b_rot x) = -x (a_rot x^(p - 1) + b_rot)
    part = np.stack([-a_rot.real, 0.5 * a_rot.imag]) * x ** (p - 1.0)
    part += np.stack([-b_rot.real, 0.5 * b_rot.imag])
    part *= x
    scaled, t = part
    np.exp(scaled, out=scaled)
    np.tan(t, out=t)
    den = t * t
    den += 1.0
    scaled /= den
    np.subtract(2.0, den, out=den)
    t *= scaled
    scaled *= den
    sums = np.einsum("...k,k->...", part, w)
    return np.exp(-1j * phi) / sigma * (sums[0] - 2j * sums[1])


def policy_laplace_factor(s, mixture: list[tuple[float, int]],
                          omega: float, sigma_u2: float,
                          params: NetworkParams):
    """Distance-averaged success factor of the outage transforms.

    Evaluates E_d{ exp(-(sigma_u2 / P) * s * d^alpha
                        - pi * lambda_b * omega * d^2 * s^(2/alpha)) }
    for a signed exponential mixture of squared-distance laws, elementwise
    over `s` with Re(s) >= 0 (a scalar gives a scalar).  Each term is
    int_0^inf exp(-a z^(alpha/2) - b z) dz: `_mixture_integral` for all
    terms and all s in one pass, or the closed form 1 / b where a = 0.
    """
    c, lam, alpha = params.c, params.lambda_b, params.alpha
    if lam <= 0:
        raise ValueError("distance averaging requires lambda_b > 0")
    s = np.asarray(s, dtype=complex)
    coeff, m = np.array(mixture, dtype=float).T.reshape((2, -1) + (1,) * s.ndim)
    b = m + omega * s ** (2.0 / alpha) / c
    terms = 1.0 / b
    if sigma_u2 > 0:
        a = (sigma_u2 / params.P) * s / (c * lam * math.pi) ** (alpha / 2.0)
        terms = np.where(a == 0, terms, _mixture_integral(a, b, alpha / 2.0))
    return np.sum(coeff * terms, axis=0)[()]
