"""Stochastic-geometry layer: serving-distance laws, the PPP interference
coefficient and the Laplace-functional machinery behind the grouping-policy
averages."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import comb, gamma

from .model import NetworkParams

__all__ = [
    "GroupingPolicy",
    "serving_distance_pdf",
    "serving_distance_cdf",
    "ordered_distance_pdf",
    "sample_serving_distances",
    "interference_coefficient",
    "distance_mixture",
    "policy_laplace_factor",
]


@dataclass(frozen=True)
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


def serving_distance_pdf(x, params: NetworkParams):
    """Rayleigh-type density of the nearest-BS distance, 2*c*lam*pi*x*exp(-c*lam*pi*x^2)."""
    x = np.asarray(x, dtype=float)
    rate = params.c * params.lambda_b * math.pi
    return 2.0 * rate * x * np.exp(-rate * x * x)


def serving_distance_cdf(x, params: NetworkParams):
    x = np.asarray(x, dtype=float)
    rate = params.c * params.lambda_b * math.pi
    return 1.0 - np.exp(-rate * x * x)


def ordered_distance_pdf(x, r: int, n_total: int, params: NetworkParams):
    """Density of the r-th smallest of `n_total` i.i.d. serving distances."""
    if not 1 <= r <= n_total:
        raise ValueError(f"rank r={r} outside [1, {n_total}]")
    F = serving_distance_cdf(x, params)
    f = serving_distance_pdf(x, params)
    return r * comb(n_total, r) * F ** (r - 1) * (1.0 - F) ** (n_total - r) * f


def sample_serving_distances(params: NetworkParams, rng: np.random.Generator,
                             size=None) -> np.ndarray:
    """Inverse-CDF sampling of the serving-distance law."""
    u = rng.random(size=size)
    rate = params.c * params.lambda_b * math.pi
    return np.sqrt(-np.log1p(-u) / rate)


def interference_coefficient(u: np.ndarray, params: NetworkParams) -> float:
    """Per-user interference coefficient of the PPP Laplace functional.

    Gamma(1 - 2/alpha) * ((rho_I / P) * |u^H 1|^2) ** (2/alpha); the filter
    direction enters only through its overlap with the all-ones vector.
    """
    if params.alpha <= 2:
        raise ValueError("alpha must exceed 2")
    u = np.asarray(u)
    overlap = abs(np.sum(np.conj(u))) ** 2
    return float(gamma(1.0 - 2.0 / params.alpha)
                 * (params.rho_I / params.P * overlap) ** (2.0 / params.alpha))


def distance_mixture(rank: int, n_total: int) -> list[tuple[float, int]]:
    """Exponential-mixture representation of the rank-r distance law.

    In the squared-distance variable y = x^2 the ordered density is a signed
    mixture of exponentials with rates m * c * lambda_b * pi; returns the
    (coefficient, m) pairs.  Rank 1 of 2 is the random-policy near user,
    rank 2 of 2 the random-policy far user.
    """
    if not 1 <= rank <= n_total:
        raise ValueError(f"rank {rank} outside [1, {n_total}]")
    head = rank * comb(n_total, rank)
    terms = []
    for l in range(rank):
        coeff = head * (-1.0) ** l * comb(rank - 1, l)
        m = n_total - rank + l + 1
        terms.append((float(coeff), int(m)))
    return terms


def _mixture_term(a_scaled: complex, b: complex, alpha: float) -> complex:
    """One normalized mixture integral: int_0^inf exp(-a*z^(alpha/2) - b*z) dz.

    `a_scaled` carries the noise contribution (zero in the
    interference-limited regime, where the closed form 1/b applies).
    """
    if a_scaled == 0:
        return 1.0 / b
    decay = min(b.real, 1.0)
    z_max = 45.0 / decay
    val, _ = quad(lambda z: np.exp(-a_scaled * z ** (alpha / 2.0) - b * z),
                  0.0, z_max, complex_func=True, limit=200)
    return val


def policy_laplace_factor(s: complex, mixture: list[tuple[float, int]],
                          omega: float, sigma_u2: float,
                          params: NetworkParams) -> complex:
    """Distance-averaged success factor of the outage transforms.

    Evaluates E_d{ exp(-(sigma_u2 / P) * s * d^alpha
                        - pi * lambda_b * omega * d^2 * s^(2/alpha)) }
    for a signed exponential mixture of squared-distance laws; `s` may be
    complex with Re(s) > 0.  Noise-free input short-circuits to the
    interference-limited closed form.
    """
    c, lam, alpha = params.c, params.lambda_b, params.alpha
    if lam <= 0:
        raise ValueError("distance averaging requires lambda_b > 0")
    s_frac = s ** (2.0 / alpha)
    base_rate = c * lam * math.pi
    a_scaled = (sigma_u2 / params.P) * s / base_rate ** (alpha / 2.0)
    # Below this the noise exponent is indistinguishable from zero at the
    # quadrature tolerance: fall through to the interference-limited form.
    if abs(a_scaled) < 1e-14:
        a_scaled = 0.0
    total = 0.0 + 0.0j
    for coeff, m in mixture:
        b = m + omega * s_frac / c
        total += coeff * _mixture_term(a_scaled, b, alpha)
    return total
