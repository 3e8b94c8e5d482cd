"""Signal-alignment precoder construction and goodput maximization.

The precoder factorizes as V = L G^-H D: an antenna-selection matrix L
chosen by enumerating the antenna subsets, the inverse of the aligned
effective channel G, and a diagonal D normalizing every column to unit
norm.  Receive filters live in the null space of the stacked per-pair
channels so both users of a pair see the same effective channel.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import _golden_min
from .laplace import Inversion1DConfig, Inversion2DConfig
from .model import NetworkParams, PairConfig
from .outage import (EffectiveChannel, _near_exact_evaluator,
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
    "choose_receiver_combining",
    "build_precoder",
    "maximize_goodput",
    "baseline_goodput",
]

_NULL_TOL = 1e-10
_MAX_ENUMERATION = 5040
_SUBSAMPLE = 1000
# Rate-cap bisection: relative bracket width at which it stops, and the
# halving cap that ends it when no rate is feasible.
_CAP_RTOL = 1e-9
_CAP_ITERS = 60
# Points per rate axis of the starting grids: the (R_k, R_kt) grid of the
# pair optimizer, and the rate grid that brackets a single-stream optimum.
_PAIR_GRID = 14
_STREAM_GRID = 48


@dataclass(frozen=True)
class LinearDesign:
    """Precoder, per-pair receive filters and the aligned effective gains."""

    V: np.ndarray          # M x K, unit-norm columns
    u_near: np.ndarray     # K x N, row k filters pair k's near user
    u_far: np.ndarray      # K x N
    L: np.ndarray          # M x K antenna selection
    gamma: np.ndarray      # K effective gains 1 / (G^-1 G^-H)_kk
    flags: tuple[str, ...] = ()

    @property
    def min_gain(self) -> float:
        return float(self.gamma.min())


@dataclass(frozen=True)
class PairLink:
    """Everything the outage engine needs about one NOMA pair."""

    eff_near: EffectiveChannel
    eff_far: EffectiveChannel
    pair: PairConfig


@dataclass(frozen=True)
class RateSolution:
    """Optimized per-pair rates with the achieved outage/goodput."""

    R_k: float
    R_kt: float
    goodput: float
    p_near: float
    p_far: float
    feasible: bool = True


def alignment_nullspace(H_near: np.ndarray, H_far: np.ndarray,
                        L: np.ndarray) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the stacked filter null space.

    Returns (U, degenerate): U is 2N x (2N - K) with
    ((H_near L)^H, -(H_far L)^H) U = 0; `degenerate` marks a rank-deficient
    stacked channel whose null space is strictly larger.
    """
    A = (H_near @ L).conj().T
    B = (H_far @ L).conj().T
    K, N = A.shape
    if K >= 2 * N:
        raise ValueError("need K < 2N for a nonempty alignment null space")
    C = np.hstack([A, -B])
    _, sv, Vh = np.linalg.svd(C, full_matrices=True)
    degenerate = bool(sv[-1] <= _NULL_TOL * max(sv[0], 1.0))
    return Vh[K:, :].conj().T, degenerate


def choose_receiver_combining(U: np.ndarray, H_near_L: np.ndarray | None = None
                              ) -> np.ndarray:
    """Unit combining vector maximizing the effective channel magnitude.

    Takes the dominant right singular direction of the map from combining
    weights to the shared effective channel.  A one-dimensional null space
    forces z = 1; the choice is unique up to a phase, which does not affect
    any gain.
    """
    dim = U.shape[1]
    if dim == 1:
        return np.ones(1, dtype=complex)
    if H_near_L is None:
        raise ValueError("channel map required when the null space has dim > 1")
    N = H_near_L.shape[0]
    gain_map = H_near_L.conj().T @ U[:N, :]
    _, _, Vh = np.linalg.svd(gain_map)
    return Vh[0, :].conj()


def _selection_matrices(M: int, K: int):
    """Antenna-selection candidates, one per K-subset of the M antennas.

    Reordering the columns of L only permutes the rows of G: the gains stay
    and V changes by column phases.  Past `_MAX_ENUMERATION` subsets,
    `_SUBSAMPLE` random ones are drawn from a fixed seed.
    """
    if math.comb(M, K) <= _MAX_ENUMERATION:
        subsets = itertools.combinations(range(M), K)
        return [np.eye(M)[:, list(c)] for c in subsets], False
    rng = np.random.default_rng(0)
    drawn = {tuple(sorted(rng.permutation(M)[:K])) for _ in range(_SUBSAMPLE)}
    return [np.eye(M)[:, list(c)] for c in sorted(drawn)], True


def build_precoder(channels: list[tuple[np.ndarray, np.ndarray]],
                   params: NetworkParams) -> LinearDesign:
    """Select the antenna subset maximizing the smallest effective gain.

    `channels` lists one (H_near, H_far) known-part pair per NOMA pair.
    Candidates with a singular aligned channel are discarded; ties resolve
    to the lowest candidate index.
    """
    K = len(channels)
    if K != params.K:
        raise ValueError("one channel pair per NOMA pair expected")
    candidates, subsampled = _selection_matrices(params.M, K)
    best = None
    for L in candidates:
        filters_n, filters_f, gs, degenerate = [], [], [], False
        for H_near, H_far in channels:
            U, deg = alignment_nullspace(H_near, H_far, L)
            degenerate |= deg
            z = choose_receiver_combining(U, H_near @ L)
            stacked = U @ z
            u_k, u_kt = stacked[:params.N], stacked[params.N:]
            filters_n.append(u_k)
            filters_f.append(u_kt)
            gs.append((H_near @ L).conj().T @ u_k)
        G = np.column_stack(gs)
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            continue
        Ginv = np.linalg.inv(G)
        W = (Ginv @ Ginv.conj().T).real
        gamma = 1.0 / np.diag(W)
        score = gamma.min()
        if best is None or score > best[0]:
            best = (score, L, np.array(filters_n), np.array(filters_f),
                    G, gamma, degenerate)
    if best is None:
        raise ValueError("all antenna-selection candidates gave a singular "
                         "aligned channel")
    score, L, u_near, u_far, G, gamma, degenerate = best
    D = np.sqrt(gamma)
    V = L @ (np.linalg.inv(G).conj().T * D)
    flags = ()
    if subsampled:
        flags += ("selection_subsampled",)
    if degenerate:
        flags += ("degenerate_null_space",)
    return LinearDesign(V=V, u_near=u_near, u_far=u_far, L=L, gamma=gamma,
                        flags=flags)


def _bisect_rate_cap(p_of_rate, epsilon: float, hi: float) -> float:
    """Largest rate in (0, hi] with p(rate) <= epsilon (p nondecreasing).

    Stops once the bracket is within `_CAP_RTOL` of its upper end, or after
    `_CAP_ITERS` halvings; with no feasible rate the lower end stays 0, the
    tolerance never triggers and the cap is 0.
    """
    if p_of_rate(hi) <= epsilon:
        return hi
    lo_ok = 0.0
    hi_bad = hi
    for _ in range(_CAP_ITERS):
        if hi_bad - lo_ok <= _CAP_RTOL * hi_bad:
            break
        mid = 0.5 * (lo_ok + hi_bad)
        if mid <= 0.0:
            break
        if p_of_rate(mid) <= epsilon:
            lo_ok = mid
        else:
            hi_bad = mid
    return lo_ok


def _pattern_search(objective, feasible, x0, caps, step0, steps=60):
    """Compass pattern search with shrinking steps inside a feasibility box."""
    x = np.array(x0, dtype=float)
    fx = objective(x)
    step = np.array(step0, dtype=float)
    for _ in range(steps):
        improved = False
        for dim in range(len(x)):
            for sign in (+1.0, -1.0):
                cand = x.copy()
                cand[dim] = cand[dim] + sign * step[dim]
                if cand[dim] <= 0.0 or cand[dim] > caps[dim]:
                    continue
                if not feasible(cand):
                    continue
                fc = objective(cand)
                if fc > fx:
                    x, fx = cand, fc
                    improved = True
        if not improved:
            step *= 0.5
            if np.all(step < 1e-5 * np.asarray(caps)):
                break
    return x, fx


def maximize_goodput(link: PairLink, epsilon: float, params: NetworkParams,
                     cfg: Inversion1DConfig | None = None,
                     cfg2d: Inversion2DConfig | None = None) -> RateSolution:
    """Per-pair goodput maximization under outage constraints.

    Solves max R_k (1 - p_near) + R_kt (1 - p_far) subject to both outage
    probabilities staying below epsilon and the power-split feasibility
    strict inequality, by a coarse grid plus pattern-search refinement
    (outage evaluations are numerical inversions, so the solver is
    derivative-free).  The near-user constraint is the exact joint outage:
    the decorrelated approximation double-charges the interference budget
    of the two SIC stages and can push the solution far off the true
    feasible boundary.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    cfg = cfg or Inversion1DConfig()
    cfg2d = cfg2d or Inversion2DConfig()
    pair0 = link.pair

    # One memo per outage function, shared by the rate caps, the grid and
    # the pattern search; every evaluation is a numerical inversion.  The
    # near-user evaluator also reuses its 2D transform grids across rate
    # points.
    @functools.cache
    def p_far(R_kt):
        return far_outage_conditional(link.eff_far, pair0.with_rates(R_kt=R_kt),
                                      params, cfg).probability

    near_exact = _near_exact_evaluator(link.eff_near, pair0, params, cfg2d)

    @functools.cache
    def p_near(R_k, R_kt):
        return near_exact(R_k, R_kt).probability

    split_cap = math.log2(1.0 + 1.0 / pair0.beta_k2) * (1.0 - 1e-9)
    far_cap = _bisect_rate_cap(p_far, min(epsilon, 1.0 - 1e-12), split_cap)
    near_cap = _bisect_rate_cap(lambda R: p_near(R, 1e-9),
                                min(epsilon, 1.0 - 1e-12), 64.0)
    if far_cap <= 0.0 or near_cap <= 0.0:
        return RateSolution(0.0, 0.0, 0.0, 1.0, 1.0, feasible=False)

    def objective(x):
        R_k, R_kt = x
        return R_k * (1.0 - p_near(R_k, R_kt)) + R_kt * (1.0 - p_far(R_kt))

    def feasible(x):
        R_k, R_kt = x
        return p_far(R_kt) <= epsilon and p_near(R_k, R_kt) <= epsilon

    r_k_axis = np.linspace(near_cap / _PAIR_GRID, near_cap, _PAIR_GRID)
    r_kt_axis = np.linspace(far_cap / _PAIR_GRID, far_cap, _PAIR_GRID)
    scored = []
    for R_k in r_k_axis:
        for R_kt in r_kt_axis:
            if p_near(R_k, R_kt) > epsilon:
                continue
            scored.append((objective((R_k, R_kt)), (R_k, R_kt)))
    if not scored:
        return RateSolution(0.0, 0.0, 0.0, 1.0, 1.0, feasible=False)
    scored.sort(key=lambda t: -t[0])
    step0 = (near_cap / _PAIR_GRID, far_cap / _PAIR_GRID)
    x, f = None, -1.0
    for _, start in scored[:3]:
        xs, fs = _pattern_search(objective, feasible, start,
                                 caps=(near_cap, far_cap), step0=step0)
        if fs > f:
            x, f = xs, fs
    return RateSolution(float(x[0]), float(x[1]), float(f),
                        p_near(x[0], x[1]), p_far(x[1]))


def _single_stream_goodput(eff: EffectiveChannel, d: float, share: float,
                           epsilon: float, params: NetworkParams,
                           cfg: Inversion1DConfig | None = None
                           ) -> tuple[float, float, float]:
    """Optimal delivered rate for an orthogonally scheduled user.

    The user holds the channel for a `share` fraction of the resource, so a
    delivered rate R requires decoding at R / share.  A grid brackets the
    goodput's maximum and golden-section search refines it.  Returns
    (R, goodput, outage).
    """
    cfg = cfg or Inversion1DConfig()

    @functools.cache
    def p_of(R):
        return single_stream_outage_conditional(
            eff, R / share, d, params, cfg).probability

    mu2, noise = eff.own_gain2, eff.noise(d, params)
    hard_cap = share * math.log2(1.0 + mu2 / noise) if noise > 0 else 64.0 * share
    cap = _bisect_rate_cap(p_of, min(epsilon, 1.0 - 1e-12), hard_cap)
    if cap <= 0.0:
        return 0.0, 0.0, 1.0
    axis = np.linspace(cap / _STREAM_GRID, cap, _STREAM_GRID)
    i = int(np.argmax([R * (1.0 - p_of(R)) for R in axis]))
    R, f = _golden_min(lambda R: -R * (1.0 - p_of(R)), axis[max(i - 1, 0)],
                       axis[min(i + 1, _STREAM_GRID - 1)])
    return float(R), float(-f), float(p_of(R))


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
