"""Numerical Laplace inversion kernels.

One-dimensional inversion follows the Euler-summation method on the
Bromwich line; the two-dimensional kernel uses a trapezoidal double
Fourier series with Wynn-epsilon tail extrapolation, run on all inner
row sums in one batched pass and then once on the outer sum.  Both
kernels treat the transform as a black box evaluated on vertical
contours with Re > 0, so fractional powers s**(2/alpha) stay on the
principal branch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import comb

__all__ = [
    "Inversion1DConfig",
    "Inversion2DConfig",
    "invert_1d",
    "invert_2d",
    "epsilon_accelerate",
]


@dataclass(frozen=True)
class Inversion1DConfig:
    """Euler-summation inversion parameters.

    `A` controls the discretization error exp(-A)/(1 - exp(-A));
    `m_euler` and `q` are the Euler averaging and truncation orders.
    """

    A: float = 23.5
    m_euler: int = 11
    q: int = 15

    def __post_init__(self):
        if not 0 < self.A < math.inf or self.m_euler < 0 or self.q < 0:
            raise ValueError(f"invalid 1D inversion configuration {self}")

    @property
    def discretization_error(self) -> float:
        e = math.exp(-self.A)
        return e / (1.0 - e)


@dataclass(frozen=True)
class Inversion2DConfig:
    """Trapezoidal 2D inversion parameters.

    Every inversion takes its sampling half-periods from one half-octave
    ladder: each axis gets T = 1.25 * 2^(j/2) for the least integer j with
    theta / T <= 0.8, so theta / T lies in (0.8 / sqrt(2), 0.8] (keeping
    the argument well inside one period even when the two abscissae are
    far apart), and nearby abscissae share one transform grid.  `L` is the
    series truncation order, `p_eps` the epsilon-extrapolation depth
    (2 * p_eps + 1 partial sums) and `e_r` the discretization error target
    fixing the contour abscissae c1, c2.
    """

    L: int = 80
    p_eps: int = 8
    e_r: float = 1e-8

    def __post_init__(self):
        if self.L < 1 or self.p_eps < 1 or not 0 < self.e_r < 1:
            raise ValueError(f"invalid 2D inversion configuration {self}")

    def resolve(self, theta1: float, theta2: float
                ) -> tuple[float, float, float, float]:
        """Concrete (T1, T2, c1, c2) for an evaluation point."""
        T1, T2 = _ladder_period(theta1), _ladder_period(theta2)
        # exp(-2 T1 c1) = e_r / 100, so the c1 wrap-around stays below e_r.
        c1 = -math.log(0.01 * self.e_r) / (2 * T1)
        xi = math.exp(-2 * T1 * c1)
        c2 = -math.log(self.e_r / (1 - xi)) / (2 * T2)
        return T1, T2, c1, c2


def _ladder_period(theta: float) -> float:
    """Half-period 1.25 * 2^(j/2) of the least integer j with
    theta / period <= 0.8; the two loops undo rounding in log2."""
    def period(j):
        return 1.25 * 2.0 ** (0.5 * j)

    j = math.ceil(2.0 * math.log2(theta))
    while theta / period(j) > 0.8:
        j += 1
    while theta / period(j - 1) <= 0.8:
        j -= 1
    return period(j)


def invert_1d(transform, tau: float, config: Inversion1DConfig | None = None) -> float:
    """Invert a 1D Laplace transform at abscissa tau > 0.

    `transform` must accept a complex ndarray and return the transform
    values elementwise.  Returns the Euler-summation estimate
    (2^-M e^{A/2} / tau) * sum_m C(M, m) [Re F(A / 2 tau) / 2
        + sum_{n=1}^{Q+m} (-1)^n Re F((A + 2 n pi i) / 2 tau)].
    """
    if tau <= 0:
        raise ValueError("inversion abscissa tau must be positive")
    cfg = config or Inversion1DConfig()
    A, M, Q = cfg.A, cfg.m_euler, cfg.q
    n = np.arange(0, Q + M + 1)
    s = (A + 2j * math.pi * n) / (2.0 * tau)
    vals = np.real(np.asarray(transform(s), dtype=complex))
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("transform returned non-finite values on the contour")
    terms = np.empty_like(vals)
    terms[0] = 0.5 * vals[0]
    terms[1:] = np.where(n[1:] % 2 == 1, -vals[1:], vals[1:])
    partial = np.cumsum(terms)
    m = np.arange(0, M + 1)
    weights = comb(M, m) / 2.0 ** M
    return float(math.exp(A / 2.0) / tau * np.dot(weights, partial[Q + m]))


def epsilon_accelerate(partial_sums):
    """Wynn epsilon extrapolation of partial sums along the last axis.

    Each index of the leading axes holds an independent sequence of an odd
    number (>= 3) of partial sums, and the result holds the final
    even-column table entry of each: an array of the leading shape, or a
    scalar (a float for real input) when `partial_sums` is 1D.  A sequence
    whose table turns numerically singular (a difference below 1e-300)
    freezes at that step and keeps the best even-column entry it reached,
    while the others go on.
    """
    sums = np.asarray(partial_sums)
    n = sums.shape[-1] if sums.ndim else 0
    if n < 3 or n % 2 == 0:
        raise ValueError("epsilon acceleration needs an odd number >= 3 of partial sums")
    e_prev = np.zeros(sums.shape[:-1] + (n + 1,), dtype=complex)
    e_curr = sums.astype(complex)
    best = e_curr[..., -1]
    frozen = np.zeros(sums.shape[:-1], dtype=bool)
    # Frozen tables are updated along with the rest; results are discarded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n):
            diff = e_curr[..., 1:] - e_curr[..., :-1]
            frozen |= np.any(np.abs(diff) < 1e-300, axis=-1)
            if frozen.all():
                break
            e_prev, e_curr = e_curr, e_prev[..., 1:e_curr.shape[-1]] + 1.0 / diff
            if k % 2 == 0:
                best = np.where(frozen, best, e_curr[..., -1])
    value = best if np.iscomplexobj(sums) else best.real
    if sums.ndim == 1:
        value = value[()] if np.iscomplexobj(sums) else float(value)
    return value


def _transform_grid(transform, periods, cfg: Inversion2DConfig) -> np.ndarray:
    """Transform values on the (s, t) contour grid of the periods."""
    T1, T2, c1, c2 = periods
    n_max = cfg.L + 2 * cfg.p_eps
    s = c1 + 1j * math.pi * np.arange(0, n_max + 1) / T1
    t = c2 + 1j * math.pi * np.arange(-n_max, n_max + 1) / T2
    F = np.asarray(transform(s[:, None], t[None, :]), dtype=complex)
    if not np.all(np.isfinite(F)):
        raise FloatingPointError("transform returned non-finite values on the contour")
    return F


def _sum_grid(F: np.ndarray, theta1: float, theta2: float, periods,
              cfg: Inversion2DConfig) -> float:
    """Epsilon-extrapolated double trapezoid sum of a transform grid at
    (theta1, theta2)."""
    T1, T2, c1, c2 = periods
    L, P = cfg.L, cfg.p_eps
    n_max = L + 2 * P
    l1 = np.arange(0, n_max + 1)
    l2 = np.arange(-n_max, n_max + 1)
    E1 = np.exp(1j * math.pi * l1 * theta1 / T1)
    E2 = np.exp(1j * math.pi * l2 * theta2 / T2)
    W = F * E1[:, None] * E2[None, :]

    zero = n_max  # column index of l2 == 0
    # Row l1 >= 1 pairs the +l2 and -l2 phase terms; row 0 keeps only +l2
    # (the formula's single sum over l2) plus half of the corner term so
    # that the final 2*Re recovers F(c1, c2) once.
    inner = W[:, zero + 1:] + W[:, zero - 1::-1]
    inner[0, :] = W[0, zero + 1:]
    inner_cum = np.cumsum(inner, axis=1)
    rows = epsilon_accelerate(inner_cum[:, L - 1:L + 2 * P])
    rows[0] += 0.5 * W[0, zero]
    rows[1:] += W[1:, zero]
    total = epsilon_accelerate(np.cumsum(rows)[L - 1:L + 2 * P])
    return float(math.exp(c1 * theta1 + c2 * theta2) / (4.0 * T1 * T2)
                 * 2.0 * total.real)


# Transform grids a `grids` dict of `invert_2d` keeps: one grid is
# (L + 2 p_eps + 1) x (2 (L + 2 p_eps) + 1) complex, 300 KB at the defaults.
_MAX_GRIDS = 8


def invert_2d(transform, theta1: float, theta2: float,
              config: Inversion2DConfig | None = None,
              grids: dict | None = None) -> float:
    """Invert a 2D Laplace transform at (theta1, theta2), both > 0.

    `transform` is called once with broadcastable complex grids (column of
    s values, row of t values) and must return the elementwise transform.
    Tail sums over both indices are extrapolated with the epsilon
    algorithm using 2 * p_eps + 1 partial sums: one batched call for every
    row's inner sum, one for the outer sum.

    `grids`, a dict the caller keeps for this one transform, reuses its
    grids across abscissae: a grid stored there for the same periods and
    orders is summed without calling `transform`, and the grid used is
    (re)inserted last, so the dict runs from least to most recently used;
    past `_MAX_GRIDS` grids the least recently used go.  The value is the
    same either way, bit for bit.
    """
    if theta1 <= 0 or theta2 <= 0:
        raise ValueError("inversion abscissae must be positive")
    cfg = config or Inversion2DConfig()
    periods = cfg.resolve(theta1, theta2)
    grids = {} if grids is None else grids
    key = (cfg.L, cfg.p_eps, *periods)
    F = grids.pop(key, None)
    if F is None:
        F = _transform_grid(transform, periods, cfg)
        F.flags.writeable = False  # shared by every later inversion
    grids[key] = F
    while len(grids) > _MAX_GRIDS:
        del grids[next(iter(grids))]
    return _sum_grid(F, theta1, theta2, periods, cfg)
