"""Numerical Laplace inversion kernels.

One-dimensional inversion follows the Euler-summation method on the
Bromwich line; the two-dimensional kernel uses a trapezoidal double
Fourier series with Wynn-epsilon tail extrapolation (Wynn, MTAC 1956),
run on all inner row sums in one batched pass and then once on the outer
sum.  Each row's partial sums come from one matrix-vector product with
the column phases plus the running sums of the tail columns, and the row
phases multiply the extrapolated row sums (the epsilon table is
homogeneous), so the grid is read in place.  The batched pass builds
every row's table together, one column at a time in two buffers, and
looks for singular steps once, after the last column.  The Euler weights
are computed once per averaging order.  Both kernels treat
the transform as a black box evaluated on vertical contours with Re > 0,
so fractional powers s**(2/alpha) stay on the principal branch.

A 2D transform may depend on u = s + t through a factor of its own (the
interference factor of the outage transforms).  Its periods then keep
T1 / T2 an integer power of 2, so that on the grid
Im u = pi (l1 / T1 + l2 / T2) = pi key / max(T1, T2) with the integer key
l1 + (T1 / T2) l2, or its mirror (T2 / T1) l1 + l2, and the transform gets
the lattice of distinct keys' u (289 to 1,633 keys for T1 / T2 from 1 to
8, against 18,721 grid nodes at the defaults), so that it can evaluate
its dependence on s + t once per key instead of at every node
(Choudhury, Lucantoni & Whitt, Ann. Appl. Probab. 1994).  Key minus its
least value is affine in the node indices, so a zero-copy strided view
reads per-key values at the nodes without a gather.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Inversion1DConfig",
    "Inversion2DConfig",
    "invert_1d",
    "invert_2d",
    "epsilon_accelerate",
]


@dataclass(frozen=True, slots=True)
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


# Discretization error target of every 2D inversion; see `resolve`.
_E_R = 1e-8


@dataclass(frozen=True, slots=True)
class Inversion2DConfig:
    """Trapezoidal 2D inversion parameters.

    Every inversion takes its sampling half-periods from one half-octave
    ladder: each axis gets T = 1.25 * 2^(j/2) for the least integer j with
    theta / T <= 0.8, so theta / T lies in (0.8 / sqrt(2), 0.8] (keeping
    the argument well inside one period even when the two abscissae are
    far apart), and nearby abscissae share one transform grid.  A
    transform with a factor of s + t (`lattice`) needs an even rung
    difference j1 - j2, so that T1 / T2 is an integer power of 2: where it
    is odd, the s axis goes one rung up, to theta1 / T1 in (0.4, 0.566].
    (Raising the t axis instead erred by up to 3.4e-8 against L = 160 on
    20 links at lambda_b = 1e-5, the s axis by 2.7e-10.)  Transforms
    without such a factor keep the plain ladder: the raised rung moved
    the interference-free fig6 p_near from 0.914729 to 0.912205.  `L` is
    the series truncation order and `p_eps` the epsilon-extrapolation depth
    (2 * p_eps + 1 partial sums); the discretization error target `_E_R`
    fixes the contour abscissae c1, c2.
    """

    L: int = 80
    p_eps: int = 8

    def __post_init__(self):
        if self.L < 1 or self.p_eps < 1:
            raise ValueError(f"invalid 2D inversion configuration {self}")

    def resolve(self, theta1: float, theta2: float, lattice: bool = False
                ) -> tuple[float, float, float, float]:
        """Concrete (T1, T2, c1, c2) for an evaluation point; `lattice`
        keeps T1 / T2 an integer power of 2."""
        j1, j2 = _ladder_rung(theta1), _ladder_rung(theta2)
        if lattice and (j1 - j2) % 2:
            j1 += 1
        T1, T2 = _rung_period(j1), _rung_period(j2)
        # exp(-2 T1 c1) = _E_R / 100, so the c1 wrap-around stays below _E_R.
        c1 = -math.log(0.01 * _E_R) / (2 * T1)
        xi = math.exp(-2 * T1 * c1)
        c2 = -math.log(_E_R / (1 - xi)) / (2 * T2)
        return T1, T2, c1, c2


def _rung_period(j: int) -> float:
    return 1.25 * 2.0 ** (0.5 * j)


def _ladder_rung(theta: float) -> int:
    """Least integer j with theta / (1.25 * 2^(j/2)) <= 0.8; the two loops
    undo rounding in log2."""
    j = math.ceil(2.0 * math.log2(theta))
    while theta / _rung_period(j) > 0.8:
        j += 1
    while theta / _rung_period(j - 1) <= 0.8:
        j -= 1
    return j


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
    return float(math.exp(A / 2.0) / tau
                 * np.dot(_euler_weights(M), partial[Q + m]))


@functools.lru_cache(maxsize=None)
def _euler_weights(M: int) -> np.ndarray:
    """Binomial averaging weights C(M, m) / 2^M, m = 0..M (read-only), each
    the exact fraction correctly rounded."""
    weights = np.array([math.comb(M, m) / 2 ** M for m in range(M + 1)])
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=None)
def _wynn_steps(n: int):
    """Where the Wynn pass over n partial sums keeps its differences.

    The n - k differences of step k = 1, ..., n - 1 are stacked on axis 0;
    returns each step's row slice there, the total height and the first
    row of each step.
    """
    start = np.cumsum([0, *range(n - 1, 0, -1)])
    rows = tuple(slice(start[k - 1], start[k]) for k in range(1, n))
    first = start[:-1]
    first.flags.writeable = False
    return rows, int(start[-1]), first


def epsilon_accelerate(partial_sums):
    """Wynn epsilon extrapolation of partial sums along the last axis.

    Each index of the leading axes holds an independent sequence of an odd
    number (>= 3) of partial sums, and the result holds the final
    even-column table entry of each: an array of the leading shape, or a
    scalar (a float for real input) when `partial_sums` is 1D.  A sequence
    whose table turns numerically singular (a difference below 1e-300)
    freezes at that step and keeps the best even-column entry it reached,
    while the others go on.

    The tables of all sequences are built together, one column at a time,
    with the partial-sum index on axis 0 and the sequences on axis 1, so
    each step is one subtraction and one reciprocal-plus-add on a
    contiguous block.  Column k = e_{k-2}[1:-1] + 1 / diff(e_{k-1})
    overwrites column k - 2 in place, so two buffers hold the table: the
    odd columns (and the zeros of column -1) in one, the even columns in
    the other, where each even column's last entry outlives the columns
    written over it.  Only the differences' magnitudes are kept, and one
    pass over them afterwards finds each sequence's first singular step.
    """
    sums = np.asarray(partial_sums)
    n = sums.shape[-1] if sums.ndim else 0
    if n < 3 or n % 2 == 0:
        raise ValueError("epsilon acceleration needs an odd number >= 3 of partial sums")
    rows, height, first_rows = _wynn_steps(n)
    m = sums.size // n
    # column k >= -1 sits in buffer k % 2 from row (k + 1) // 2 on
    columns = (np.empty((n, m), dtype=complex),
               np.zeros((n + 1, m), dtype=complex))
    columns[0][:] = sums.reshape(m, n).T
    diff = np.empty((n - 1, m), dtype=complex)
    size = np.empty((height, m))
    # A frozen table is built on with the rest; its later columns are unused.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k, step in enumerate(rows, start=1):
            col = columns[(k - 1) % 2][k // 2:k // 2 + n - k + 1]
            d = diff[:n - k]
            np.subtract(col[1:], col[:-1], out=d)
            np.abs(d, out=size[step])
            np.divide(1.0, d, out=d)
            col = columns[k % 2][(k + 1) // 2:(k + 1) // 2 + n - k]
            np.add(col, d, out=col)
        singular = np.logical_or.reduceat(size < 1e-300, first_rows, axis=0)
    # the step index of the first singular step, or n - 1 if none; even
    # column 2 j ends on row n - 1 - j of its buffer
    first = np.where(singular.any(axis=0), singular.argmax(axis=0), n - 1)
    best = columns[0][n - 1 - first // 2, np.arange(m)]
    value = best.reshape(sums.shape[:-1])
    if not np.iscomplexobj(sums):
        value = value.real
    if sums.ndim == 1:
        value = value[()] if np.iscomplexobj(sums) else float(value)
    return value


def _contour(periods, cfg: Inversion2DConfig):
    """(s, t): the contour grid of the periods, a column of s values and a
    row of t values."""
    T1, T2, c1, c2 = periods
    n_max = cfg.L + 2 * cfg.p_eps
    return (c1 + 1j * math.pi * np.arange(0, n_max + 1)[:, None] / T1,
            c2 + 1j * math.pi * np.arange(-n_max, n_max + 1)[None, :] / T2)


def _lattice(periods, cfg: Inversion2DConfig):
    """(size, make_u, view): the lattice of s + t on the contour grid of
    the periods, whose T1 / T2 is an integer power of 2.

    `make_u()` makes s + t once per integer key of
    Im u = pi key / max(T1, T2), over the dense key range of `size` keys,
    and `view(per_key)` reads an array over the keys at the grid's nodes.
    Where the key range outnumbers the nodes, no two nodes share a key:
    `make_u()` then makes s + t per node from the keys, and `view` reads
    it in C order.  The values are made on call, so that a transform can
    make them once its own temporaries are gone.
    """
    T1, T2, c1, c2 = periods
    n_max = cfg.L + 2 * cfg.p_eps
    shape = (n_max + 1, 2 * n_max + 1)
    # key - lo = steps[0] i + steps[1] j at grid index (i, j)
    ratio = round(math.log2(T1 / T2))
    steps, T = (((1, 2 ** ratio), T1) if ratio >= 0
                else ((2 ** -ratio, 1), T2))
    lo, hi = -n_max * steps[1], n_max * (steps[0] + steps[1])
    per_node = hi - lo >= shape[0] * shape[1]
    size, strides = ((shape[0] * shape[1], (shape[1], 1)) if per_node
                     else (hi - lo + 1, steps))

    def make_u():
        keys = ((steps[0] * np.arange(0, n_max + 1)[:, None]
                 + steps[1] * np.arange(-n_max, n_max + 1)[None, :]).ravel()
                if per_node else np.arange(lo, hi + 1))
        return (c1 + c2) + 1j * math.pi * keys / T

    def view(per_key):
        """Read-only grid view of per-key values, without a copy: element
        (i, j) is per_key[strides[0] i + strides[1] j]."""
        per_key = np.ascontiguousarray(per_key)
        if per_key.shape != (size,):  # would read out of bounds
            raise ValueError(f"per-key values of shape {per_key.shape}"
                             f" for {size} lattice keys")
        item = per_key.itemsize
        return np.lib.stride_tricks.as_strided(
            per_key, shape, (strides[0] * item, strides[1] * item),
            writeable=False)

    return size, make_u, view


def _transform_grid(transform, periods, cfg: Inversion2DConfig,
                    lattice: bool = False) -> np.ndarray:
    """Transform values on the contour grid of the periods (`_contour`);
    with `lattice` the transform also gets the grid's s + t lattice
    (`_lattice`) as its `lattice` keyword."""
    s, t = _contour(periods, cfg)
    F = np.asarray(transform(s, t, lattice=_lattice(periods, cfg))
                   if lattice else transform(s, t), dtype=complex)
    if not np.all(np.isfinite(F)):
        raise FloatingPointError("transform returned non-finite values on the contour")
    return F


def _sum_grid(F: np.ndarray, theta1: float, theta2: float, periods,
              cfg: Inversion2DConfig) -> float:
    """Epsilon-extrapolated double trapezoid sum of a transform grid at
    (theta1, theta2).

    Row l1's partial sums over |l2| <= L, L + 1, ..., L + 2 p_eps of
    F E2 (E2 the column phases) come from one matrix-vector product over
    |l2| <= L and the running sums of the 2 p_eps tail columns on each
    side; row 0 keeps only l2 >= 0, with half the l2 = 0 term (the
    formula's single sum over l2), so that the final 2 Re recovers
    F(c1, c2) once.  The Wynn table is homogeneous, eps(c x) = c eps(x),
    so the row phases E1 multiply the extrapolated row sums, and the grid
    is only read.
    """
    T1, T2, c1, c2 = periods
    L, P = cfg.L, cfg.p_eps
    n_max = L + 2 * P
    E1 = np.exp(1j * math.pi * np.arange(0, n_max + 1) * theta1 / T1)
    E2 = np.exp(1j * math.pi * np.arange(-n_max, n_max + 1) * theta2 / T2)
    zero = n_max  # column index of l2 == 0
    head, pos = slice(zero - L, zero + L + 1), slice(zero + 1, zero + L + 1)
    sums = np.empty((n_max + 1, 2 * P + 1), dtype=complex)
    sums[:, 0] = F[:, head] @ E2[head]
    sums[0, 0] = F[0, pos] @ E2[pos] + 0.5 * F[0, zero]
    # the tail columns l2 = +-(L + 1), ..., +-(L + 2 P)
    tail = F[:, zero + L + 1:] * E2[zero + L + 1:]
    tail[1:] += F[1:, 2 * P - 1::-1] * E2[2 * P - 1::-1]
    np.cumsum(tail, axis=1, out=sums[:, 1:])
    sums[:, 1:] += sums[:, :1]
    rows = epsilon_accelerate(sums)
    rows *= E1
    total = epsilon_accelerate(np.cumsum(rows)[L - 1:L + 2 * P])
    return float(math.exp(c1 * theta1 + c2 * theta2) / (4.0 * T1 * T2)
                 * 2.0 * total.real)


# Transform grids a `grids` dict of `invert_2d` keeps: one grid is
# (L + 2 p_eps + 1) x (2 (L + 2 p_eps) + 1) complex, 300 KB at the defaults.
_MAX_GRIDS = 8


def invert_2d(transform, theta1: float, theta2: float,
              config: Inversion2DConfig | None = None,
              grids: dict | None = None, lattice: bool = False) -> float:
    """Invert a 2D Laplace transform at (theta1, theta2), both > 0.

    `transform` is called once with broadcastable complex grids (column of
    s values, row of t values) and must return the elementwise transform.
    With `lattice`, for a transform with a factor of s + t, the periods
    follow the lattice rule (see `Inversion2DConfig`) and the call is
    `transform(s, t, lattice=(size, make_u, view))`: `make_u()` makes the
    `size` distinct values of s + t on the grid, and `view(per_key)` reads
    an array over them at the grid's nodes, without a copy (see
    `_lattice`).
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
    periods = cfg.resolve(theta1, theta2, lattice)
    grids = {} if grids is None else grids
    key = (cfg.L, cfg.p_eps, *periods)
    F = grids.pop(key, None)
    if F is None:
        F = _transform_grid(transform, periods, cfg, lattice)
        F.flags.writeable = False  # shared by every later inversion
    grids[key] = F
    while len(grids) > _MAX_GRIDS:
        del grids[next(iter(grids))]
    return _sum_grid(F, theta1, theta2, periods, cfg)
