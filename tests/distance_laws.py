"""Serving-distance laws of the PPP model, kept apart from the library.

The analysis averages over these laws through `distance_mixture` and the
simulator samples them with its own inverse CDF, so the densities here
are an independent reference for both in the tests.
"""
import math

import numpy as np
from scipy.special import comb

from nomacell import NetworkParams


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
