"""Numerical Laplace inversion kernels.

One-dimensional inversion follows the Euler-summation method on the
Bromwich line; the two-dimensional kernel uses a trapezoidal double
Fourier series with Wynn-epsilon tail extrapolation (Wynn, MTAC 1956),
run on all inner row sums in one batched pass and then once on the outer
sum.  The batched pass builds every row's table together, one column at a
time, and looks for singular steps once, after the last column.  The
Euler weights are computed once per averaging order.  Both kernels treat
the transform as a black box evaluated on vertical contours with Re > 0,
so fractional powers s**(2/alpha) stay on the principal branch.

A 2D transform may carry a factor of u = s + t alone (the interference
factor of the outage transforms), passed apart from the rest.
Its periods then keep T1 / T2 an integer power of 2, so that on the grid
Im u = pi (l1 / T1 + l2 / T2) = pi key / max(T1, T2) with the integer key
l1 + (T1 / T2) l2, or its mirror (T2 / T1) l1 + l2: the factor is
evaluated once per distinct key (289 to 1,633 keys for T1 / T2 from 1 to
8, against 18,721 grid nodes at the defaults) instead of at every node
(Choudhury, Lucantoni & Whitt, Ann. Appl. Probab. 1994).  Key minus its
least value is affine in the node indices, so a zero-copy strided view
reads per-key values at the nodes without a gather.  A transform may go
further with an `on_lattice` method that evaluates all of its dependence
on s + t per key (the near user's joint transform does).
"""
from __future__ import annotations

import functools
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


# Discretization error target of every 2D inversion; see `resolve`.
_E_R = 1e-8


@dataclass(frozen=True)
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
    """Binomial averaging weights C(M, m) / 2^M, m = 0..M (read-only)."""
    weights = comb(M, np.arange(0, M + 1)) / 2.0 ** M
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=None)
def _wynn_layout(n: int):
    """Where the Wynn table of n partial sums keeps its columns.

    Column k = -1, 0, ..., n - 1 (column -1 the zeros that start the
    recursion, column 0 the sums) holds n - k entries, stacked on axis 0 of
    one table; the n - k differences of step k are stacked likewise.
    Returns the table and difference heights; per step k = 1, ..., n - 1
    the row slices of column k - 2 without its first and last entries, of
    columns k - 1 and k, and of the step's differences; the first
    difference row of each step; and the table row of each even column's
    last entry.
    """
    start = np.cumsum([0, *range(n + 1, 0, -1)])
    dstart = np.cumsum([0, *range(n - 1, 0, -1)])
    steps = tuple((slice(start[k - 1] + 1, start[k] - 1),
                   slice(start[k], start[k + 1]),
                   slice(start[k + 1], start[k + 2]),
                   slice(dstart[k - 1], dstart[k])) for k in range(1, n))
    step_rows, last = dstart[:-1], start[2:][::2] - 1
    step_rows.flags.writeable = last.flags.writeable = False
    return int(start[-1]), int(dstart[-1]), steps, step_rows, last


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
    contiguous block.  Every difference is kept, and one pass over them
    afterwards finds each sequence's first singular step.
    """
    sums = np.asarray(partial_sums)
    n = sums.shape[-1] if sums.ndim else 0
    if n < 3 or n % 2 == 0:
        raise ValueError("epsilon acceleration needs an odd number >= 3 of partial sums")
    size, dsize, steps, step_rows, last = _wynn_layout(n)
    m = sums.size // n
    table = np.empty((size, m), dtype=complex)
    table[:n + 1] = 0.0
    table[n + 1:2 * n + 1] = sums.reshape(m, n).T
    diffs = np.empty((dsize, m), dtype=complex)
    # A frozen table is built on with the rest; its later columns are unused.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for before, curr, new, step in steps:
            col, d = table[curr], diffs[step]
            np.subtract(col[1:], col[:-1], out=d)
            col = table[new]
            np.divide(1.0, d, out=col)
            np.add(table[before], col, out=col)
        singular = np.logical_or.reduceat(np.abs(diffs) < 1e-300, step_rows,
                                          axis=0)
    # the step index of the first singular step, or n - 1 if none
    first = np.where(singular.any(axis=0), singular.argmax(axis=0), n - 1)
    best = table[last[first // 2], np.arange(m)]
    value = best.reshape(sums.shape[:-1])
    if not np.iscomplexobj(sums):
        value = value.real
    if sums.ndim == 1:
        value = value[()] if np.iscomplexobj(sums) else float(value)
    return value


def _transform_grid(transform, phi, periods, cfg: Inversion2DConfig
                    ) -> np.ndarray:
    """Transform values on the (s, t) contour grid of the periods.

    With `phi` the factor of u = s + t is evaluated once per integer key
    of the lattice Im u = pi key / max(T1, T2), on the dense key range,
    and read at the nodes through a strided view of the per-key values
    (`view`).  A transform with an `on_lattice` method gets the keys'
    u, the factor there and the view maker, and builds the grid itself
    from its own per-key values, unless the keys outnumber half the nodes;
    the transform runs per node otherwise.  Where the key range outnumbers
    the nodes, no two nodes share a key, and the factor too is evaluated
    per node.
    """
    T1, T2, c1, c2 = periods
    n_max = cfg.L + 2 * cfg.p_eps
    l1 = np.arange(0, n_max + 1)[:, None]
    l2 = np.arange(-n_max, n_max + 1)[None, :]
    s = c1 + 1j * math.pi * l1 / T1
    t = c2 + 1j * math.pi * l2 / T2
    shape = (l1.size, l2.size)
    nodes = shape[0] * shape[1]
    if phi is None:
        F = np.asarray(transform(s, t), dtype=complex)
    else:
        # key - lo = steps[0] i + steps[1] j at grid index (i, j)
        ratio = round(math.log2(T1 / T2))
        steps, T = (((1, 2 ** ratio), T1) if ratio >= 0
                    else ((2 ** -ratio, 1), T2))
        lo, hi = -n_max * steps[1], n_max * (steps[0] + steps[1])
        if hi - lo < nodes:
            size = hi - lo + 1  # keys in the range

            def lattice_u():
                return (c1 + c2) + 1j * math.pi * np.arange(lo, hi + 1) / T

            def view(per_key):
                """Read-only grid view of per-key values, without a copy:
                element (i, j) is per_key[steps[0] i + steps[1] j]."""
                per_key = np.ascontiguousarray(per_key)
                if per_key.shape != (size,):  # would read out of bounds
                    raise ValueError(f"per-key values of shape {per_key.shape}"
                                     f" for {size} lattice keys")
                item = per_key.itemsize
                return np.lib.stride_tricks.as_strided(
                    per_key, shape, (steps[0] * item, steps[1] * item),
                    writeable=False)

            # A key costs the near user's `on_lattice` about what a node
            # costs its per-node form, and a node about half that: at
            # 6,241 keys per 18,721 nodes it took 15-25% less time, at
            # 12,385 as much.
            on_lattice = getattr(transform, "on_lattice", None)
            if on_lattice is not None and 2 * size <= nodes:
                u = lattice_u()
                F = on_lattice(s, t, u, phi(u), view)
            else:
                # The right operand, keys and factor, is made after the
                # transform, whose temporaries are gone by then.  It is a
                # view, so numpy may write the product only into the left
                # operand, and it runs in the written operand order (a
                # vectorized complex product rounds differently in the
                # other).
                F = (np.asarray(transform(s, t), dtype=complex)
                     * view(phi(lattice_u())))
        else:  # the same, with the factor per node
            F = (np.asarray(transform(s, t), dtype=complex)
                 * phi((c1 + c2) + 1j * math.pi
                       * (steps[0] * l1 + steps[1] * l2).ravel() / T
                       ).reshape(shape))
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
    W = F * E1[:, None]
    W *= E2

    zero = n_max  # column index of l2 == 0
    # Row l1 >= 1 pairs the +l2 and -l2 phase terms; row 0 keeps only +l2
    # (the formula's single sum over l2) plus half of the corner term so
    # that the final 2*Re recovers F(c1, c2) once.  The pairs and their
    # running sums overwrite W's columns l2 > 0, which nothing reads again.
    inner = W[:, zero + 1:]
    np.add(inner[1:], W[1:, zero - 1::-1], out=inner[1:])
    np.cumsum(inner, axis=1, out=inner)
    rows = epsilon_accelerate(inner[:, L - 1:L + 2 * P])
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
              grids: dict | None = None, phi=None) -> float:
    """Invert a 2D Laplace transform at (theta1, theta2), both > 0.

    `transform` is called once with broadcastable complex grids (column of
    s values, row of t values) and must return the elementwise transform.
    `phi`, for a transform with a factor phi(s + t), maps a 1D array of
    u = s + t to that factor; the grid is then transform * phi(s + t), and
    the periods follow the lattice rule (see `Inversion2DConfig`).  Such a
    transform may also have a method `on_lattice(s, t, u, factor, view)`
    that returns the whole grid, factor included, from the lattice keys'
    u = s + t and factor values; `view(per_key)` reads an array over the
    keys at the grid's nodes, without a copy.
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
    periods = cfg.resolve(theta1, theta2, lattice=phi is not None)
    grids = {} if grids is None else grids
    key = (cfg.L, cfg.p_eps, *periods)
    F = grids.pop(key, None)
    if F is None:
        F = _transform_grid(transform, phi, periods, cfg)
        F.flags.writeable = False  # shared by every later inversion
    grids[key] = F
    while len(grids) > _MAX_GRIDS:
        del grids[next(iter(grids))]
    return _sum_grid(F, theta1, theta2, periods, cfg)
