"""Signal-alignment precoder construction and goodput maximization.

The precoder factorizes as V = L G^-H D: an antenna-selection matrix L
chosen by enumerating the antenna subsets, the inverse of the aligned
effective channel G, and a diagonal D normalizing every column to unit
norm.  Receive filters live in the null space of the stacked per-pair
channels so both users of a pair see the same effective channel.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .laplace import Inversion1DConfig
from .model import NetworkParams, PairConfig
from .outage import (EffectiveChannel, _inv_snr_gap, _NearJoint,
                     far_outage_conditional, single_stream_outage_conditional)
# Neither is called here (`maximize_goodput` holds a grid-reusing evaluator
# of the exact operator), but `perfbench/nomabench/tracing.py` patches every
# outage site of this module by name.
from .outage import (near_outage_conditional_approx,  # noqa: F401
                     near_outage_conditional_exact)

__all__ = [
    "LinearDesign",
    "PairLink",
    "RateSolution",
    "alignment_nullspace",
    "build_precoder",
    "maximize_goodput",
    "baseline_goodput",
]

_NULL_TOL = 1e-10
_MAX_ENUMERATION = 5040
_SUBSAMPLE = 1000
# Rate-cap search: relative bracket width at which it stops, and the cap
# on evaluations below the bracket top that ends it when no rate is
# feasible.  ITP truncation gain (times 1 / hi) and exponent, and the
# steps it may take beyond bisection.
_CAP_RTOL = 1e-9
_CAP_ITERS = 60
_ITP_K1 = 0.2
_ITP_K2 = 2.0
_ITP_N0 = 1
# Upper end of a rate bracket that no link quantity bounds, in bit/s/Hz.
_RATE_MAX = 64.0
# Relative step of the pair optimizer's corner probes.
_CORNER_STEP = 1e-3
# Relative goodput gap at which the rate-box search stops.
_BOX_RTOL = 1e-3


@dataclass(frozen=True, slots=True)
class LinearDesign:
    """Precoder, per-pair receive filters and the aligned effective gains."""

    V: np.ndarray          # M x K, unit-norm columns
    u_near: np.ndarray     # K x N, row k filters pair k's near user
    u_far: np.ndarray      # K x N
    L: np.ndarray          # M x K antenna selection
    gamma: np.ndarray      # K effective gains 1 / (G^-1 G^-H)_kk
    flags: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class PairLink:
    """Everything the outage engine needs about one NOMA pair."""

    eff_near: EffectiveChannel
    eff_far: EffectiveChannel
    pair: PairConfig


@dataclass(frozen=True, slots=True)
class RateSolution:
    """Optimized per-pair rates with the achieved outage/goodput."""

    R_k: float
    R_kt: float
    goodput: float
    p_near: float
    p_far: float
    feasible: bool = True


def alignment_nullspace(A_near: np.ndarray,
                        A_far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the stacked filter null space.

    `A_near` = H_near L and `A_far` = H_far L are the selected N x K
    channels, or stacks of them over any leading axes.  Returns
    (U, degenerate): U is 2N x (2N - K) per matrix with
    (A_near^H, -A_far^H) U = 0; `degenerate` marks a rank-deficient stacked
    channel whose null space is strictly larger.
    """
    N, K = A_near.shape[-2:]
    if K >= 2 * N:
        raise ValueError("need K < 2N for a nonempty alignment null space")
    C = np.concatenate([A_near, -A_far], axis=-2).conj().swapaxes(-1, -2)
    _, sv, Vh = np.linalg.svd(C, full_matrices=True)
    degenerate = sv[..., -1] <= _NULL_TOL * np.maximum(sv[..., 0], 1.0)
    return Vh[..., K:, :].conj().swapaxes(-1, -2), degenerate


def _choose_receiver_combining(U: np.ndarray,
                               A_near: np.ndarray) -> np.ndarray:
    """Unit combining vector maximizing the effective channel magnitude.

    Takes the dominant right singular direction of the map from combining
    weights to the shared effective channel, A_near^H U[:N], per matrix of
    the stacks `U` and `A_near` = H_near L.  A one-dimensional null space
    forces z = 1; the choice is unique up to a phase, which does not affect
    any gain.
    """
    if U.shape[-1] == 1:
        return np.ones(U.shape[:-2] + (1,), dtype=complex)
    N = A_near.shape[-2]
    _, _, Vh = np.linalg.svd(A_near.conj().swapaxes(-1, -2) @ U[..., :N, :])
    return Vh[..., 0, :].conj()


def _selection_columns(M: int, K: int) -> tuple[np.ndarray, bool]:
    """Antenna-selection candidates as rows of column indices, one per
    K-subset of the M antennas.

    Candidate c selects L = I_M[:, cols[c]], so H L is the column gather
    H[:, cols[c]].  Reordering the columns of L only permutes the rows of
    G: the gains stay and V changes by column phases.  Past
    `_MAX_ENUMERATION` subsets, `_SUBSAMPLE` random ones are drawn from a
    fixed seed.
    """
    if math.comb(M, K) <= _MAX_ENUMERATION:
        return np.array(list(itertools.combinations(range(M), K))), False
    rng = np.random.default_rng(0)
    drawn = {tuple(sorted(rng.permutation(M)[:K])) for _ in range(_SUBSAMPLE)}
    return np.array(sorted(drawn)), True


def build_precoder(channels: list[tuple[np.ndarray, np.ndarray]],
                   params: NetworkParams) -> LinearDesign:
    """Select the antenna subset maximizing the smallest effective gain.

    `channels` lists one (H_near, H_far) known-part pair per NOMA pair.
    Every (candidate, pair) combination is scored in one stacked pass: one
    null-space and one combining call over all of them.  Candidates with a
    singular aligned channel are discarded; ties resolve to the lowest
    candidate index.
    """
    K = len(channels)
    if K != params.K:
        raise ValueError("one channel pair per NOMA pair expected")
    cols, subsampled = _selection_columns(params.M, K)
    # (candidate, pair, N, K) stacks of the selected channels H L
    A_near, A_far = (np.moveaxis(np.array(side)[..., cols], 2, 0)
                     for side in zip(*channels))
    U, degenerate = alignment_nullspace(A_near, A_far)
    z = _choose_receiver_combining(U, A_near)
    stacked = (U @ z[..., None])[..., 0]
    u_near, u_far = stacked[..., :params.N], stacked[..., params.N:]
    # column k of G is pair k's effective channel (H_near L)^H u_k
    G = (A_near.conj().swapaxes(-1, -2) @ u_near[..., None])[..., 0]
    G = G.swapaxes(-1, -2)
    sv = np.linalg.svd(G, compute_uv=False)
    valid = np.flatnonzero(sv[:, -1] > 1e-12 * np.maximum(sv[:, 0], 1.0))
    if valid.size == 0:
        raise ValueError("all antenna-selection candidates gave a singular "
                         "aligned channel")
    Ginv = np.linalg.inv(G[valid])
    gamma = 1.0 / np.diagonal((Ginv @ Ginv.conj().swapaxes(-1, -2)).real,
                              axis1=-2, axis2=-1)
    best = int(np.argmax(gamma.min(axis=-1)))
    c = valid[best]
    L = np.eye(params.M)[:, cols[c]]
    V = L @ (Ginv[best].conj().T * np.sqrt(gamma[best]))
    flags = ()
    if subsampled:
        flags += ("selection_subsampled",)
    if degenerate[c].any():
        flags += ("degenerate_null_space",)
    # copies: a view would keep every candidate's stack alive
    return LinearDesign(V=V, u_near=u_near[c].copy(), u_far=u_far[c].copy(),
                        L=L, gamma=gamma[best].copy(), flags=flags)


def _bisect_rate_cap(p_of_rate, epsilon: float, hi: float,
                     share: float = 1.0) -> float:
    """Largest rate in (0, hi] with p(rate) <= epsilon (p nondecreasing).

    ITP search (Oliveira & Takahashi, ACM TOMS 47(1), 2021) for the root of
    g = p - epsilon, taking g(0) = -epsilon without evaluating 0: a
    regula-falsi step, truncated and projected so that the bracket after j
    steps is at most hi 2^(_ITP_N0 - j); a step onto a bracket end takes the
    midpoint.  Stops at a bracket within `_CAP_RTOL` of its upper end, or
    after `_CAP_ITERS` evaluations below hi.  Rates decode at R / `share`;
    a probe whose threshold 2^(R / share) - 1 rounds to 0 decodes as rate
    0 and gives way to the midpoint, and once the midpoint does too the
    search ends.  Returns hi, the largest rate it evaluated with
    p <= epsilon, or 0 when it found none.
    """
    def as_zero(R):
        return _inv_snr_gap(R / share) == math.inf

    if as_zero(hi):
        return 0.0
    g_b = p_of_rate(hi) - epsilon
    if g_b <= 0.0:
        return hi
    a, b, g_a = 0.0, hi, -epsilon
    for j in range(_CAP_ITERS):
        width = b - a
        if width <= _CAP_RTOL * b:
            break
        mid = 0.5 * (a + b)
        x_f = (a * g_b - b * g_a) / (g_b - g_a)
        sigma = math.copysign(1.0, mid - x_f)
        delta = _ITP_K1 * width ** _ITP_K2 / hi
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        r = hi * 2.0 ** (_ITP_N0 - j - 1) - 0.5 * width
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        if not a < x < b or as_zero(x):
            x = mid
        if as_zero(x):
            break
        g = p_of_rate(x) - epsilon
        if g <= 0.0:
            a, g_a = x, g
        else:
            b, g_b = x, g
    return a


def _box_search(outages, epsilon: float, top: tuple, start: tuple):
    """Best rates x in the box [0, top] by monotone branch-and-bound.

    Maximizes sum_i x_i (1 - p_i(x)) subject to p_i(x) <= epsilon, where
    `outages(x)` gives the p_i, each nondecreasing in every rate (Tuy,
    SIAM J. Optim. 11(2), 2000).  A box [a, b] bounds the goodput by
    sum_i b_i (1 - p_i(a)) and is dropped when p(a) misses epsilon.  From
    the feasible incumbent `start`, the box of largest bound is halved
    along its longest side and each feasible lower corner is a candidate,
    until no bound exceeds the incumbent by more than `_BOX_RTOL` of it.
    Returns (rates, goodput) of the incumbent.
    """
    def value(x, p):
        return sum(r * (1.0 - q) for r, q in zip(x, p))

    best, g = start, value(start, outages(start))
    origin = (0.0,) * len(top)
    boxes = [(-value(top, outages(origin)), origin, top)]
    while boxes and -boxes[0][0] > g * (1.0 + _BOX_RTOL):
        _, a, b = heapq.heappop(boxes)
        i = max(range(len(a)), key=lambda j: b[j] - a[j])
        mid = 0.5 * (a[i] + b[i])
        for lo, hi in ((a, b[:i] + (mid,) + b[i + 1:]),
                       (a[:i] + (mid,) + a[i + 1:], b)):
            p = outages(lo)
            if max(p) > epsilon:
                continue
            if value(lo, p) > g:
                best, g = lo, value(lo, p)
            heapq.heappush(boxes, (-value(hi, p), lo, hi))
    return best, g


def maximize_goodput(link: PairLink, epsilon: float, params: NetworkParams,
                     cfg: Inversion1DConfig | None = None) -> RateSolution:
    """Per-pair goodput maximization under outage constraints.

    Solves max R_k (1 - p_near) + R_kt (1 - p_far) subject to both outage
    probabilities staying below epsilon and the power-split feasibility
    strict inequality.  p_far depends on R_kt alone and p_near rises in
    both rates, so a constrained optimum sits at the corner where both
    constraints bind: R_kt at the smaller of the far cap and the SIC cap
    (the near user's outage at a vanishing R_k), then R_k at the near cap
    there, each cap found by `_bisect_rate_cap`'s ITP search.  The corner
    is returned when two one-sided probes, a step `_CORNER_STEP` back along
    the near-cap boundary and in R_k alone, both lose goodput.  Otherwise
    `_box_search` certifies the optimum to `_BOX_RTOL` over the box
    [0, near cap at a vanishing R_kt] x [0, corner R_kt], which holds every
    feasible pair.  The near-user constraint is the exact joint outage: the
    decorrelated approximation double-charges the interference budget of
    the two SIC stages and can push the solution far off the true feasible
    boundary.  `cfg` sets the far user's 1D inversions; the near user's
    joint outage is inverted in 2D at the default `Inversion2DConfig`.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    cfg = cfg or Inversion1DConfig()
    pair0 = link.pair
    eps = min(epsilon, 1.0 - 1e-12)

    # One memo per outage function, shared by the caps, the probes and the
    # search; every evaluation is a numerical inversion.  The near-user
    # evaluator also reuses its 2D transform grids across rate points.
    @functools.cache
    def p_far(R_kt):
        return far_outage_conditional(link.eff_far, pair0.with_rates(R_kt=R_kt),
                                      params, cfg).probability

    near_exact = _NearJoint(link.eff_near, pair0, params)
    p_near = functools.cache(lambda *rates: near_exact(*rates).probability)

    def near_cap(R_kt):
        return _bisect_rate_cap(lambda R: p_near(R, R_kt), eps, _RATE_MAX)

    def goodput(R_k, R_kt):
        return R_k * (1.0 - p_near(R_k, R_kt)) + R_kt * (1.0 - p_far(R_kt))

    split_cap = math.log2(1.0 + 1.0 / pair0.beta_k2) * (1.0 - 1e-9)
    far_cap = _bisect_rate_cap(p_far, eps, split_cap)
    # the SIC stage alone, at a vanishing R_k, caps R_kt too
    R_kt = _bisect_rate_cap(lambda R: p_near(1e-9, R), eps, far_cap)
    if R_kt <= 0.0:
        return RateSolution(0.0, 0.0, 0.0, 1.0, 1.0, feasible=False)
    R_k = near_cap(R_kt)
    g = goodput(R_k, R_kt)
    back = R_kt * (1.0 - _CORNER_STEP)
    if (goodput(near_cap(back), back) >= g
            or goodput(R_k * (1.0 - _CORNER_STEP), R_kt) >= g):
        (R_k, R_kt), g = _box_search(lambda x: (p_near(*x), p_far(x[1])), eps,
                                     (near_cap(1e-9), R_kt), (R_k, R_kt))
    return RateSolution(float(R_k), float(R_kt), float(g), p_near(R_k, R_kt),
                        p_far(R_kt))


def _single_stream_goodput(eff: EffectiveChannel, d: float, share: float,
                           epsilon: float, params: NetworkParams,
                           cfg: Inversion1DConfig | None = None
                           ) -> tuple[float, float, float]:
    """Optimal delivered rate for an orthogonally scheduled user.

    The user holds the channel for a `share` fraction of the resource, so a
    delivered rate R requires decoding at R / share.  From the outage cap,
    `_box_search` certifies the best rate below it to `_BOX_RTOL`.
    Returns (R, goodput, outage).
    """
    cfg = cfg or Inversion1DConfig()

    @functools.cache
    def p_of(R):
        return single_stream_outage_conditional(
            eff, R / share, d, params, cfg).probability

    mu2, noise = eff.own_gain2, eff.noise(d, params)
    hard_cap = share * math.log2(1.0 + mu2 / noise) if noise > 0 else _RATE_MAX * share
    eps = min(epsilon, 1.0 - 1e-12)
    cap = _bisect_rate_cap(p_of, eps, hard_cap, share)
    if cap <= 0.0:
        return 0.0, 0.0, 1.0
    (R,), g = _box_search(lambda x: (p_of(*x),), eps, (cap,), (cap,))
    return float(R), float(g), float(p_of(R))


def baseline_goodput(scheme: str, link: PairLink, epsilon: float,
                     params: NetworkParams,
                     cfg: Inversion1DConfig | None = None) -> RateSolution:
    """Optimized goodput of a benchmark scheme on the given pair link.

    `noma` runs the standard two-user optimization on the supplied link
    (build the link from identity precoding to get the plain-NOMA
    benchmark).  `oma` splits the resource: the near user gets the near
    power share, the far user the complement, each decoding at rate/share.
    """
    if scheme == "noma":
        return maximize_goodput(link, epsilon, params, cfg)
    if scheme != "oma":
        raise ValueError(f"unknown baseline scheme {scheme!r}")
    pair = link.pair
    R_k, g_near, p_near = _single_stream_goodput(
        link.eff_near, pair.d_k, pair.beta_k2, epsilon, params, cfg)
    R_kt, g_far, p_far = _single_stream_goodput(
        link.eff_far, pair.d_kt, pair.beta_kt2, epsilon, params, cfg)
    return RateSolution(R_k, R_kt, g_near + g_far, p_near, p_far,
                        feasible=g_near + g_far > 0.0)
