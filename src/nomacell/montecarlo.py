"""Ground-truth network simulator.

Draws Kronecker estimation errors and shot-noise interferer fields, forms
the three decoding SINRs exactly and counts threshold successes.  Trials
are processed in fixed-size chunks, each with its own substream spawned
from the master seed, so results are reproducible and order-independent.
Within a chunk the interferer field is evaluated block by block of whole
trials: each block draws its own radii and angles, from the stream
positions that whole-chunk arrays would have taken, so the memory is one
block's temporaries, and each trial's path-loss sum is pairwise over its
own points, whatever the block size.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _sample_serving_distances
from .model import NetworkParams, PairConfig, sample_error_matrix
from .scenario import Scenario

__all__ = [
    "McEstimate",
    "McOutageReport",
    "estimate_outage",
    "estimate_goodput",
]

_CHUNK = 2000
_MODES = ("conditional", "average-random", "average-distance")
# Cap on the expected interferer count per trial; beyond this the window is
# shrunk (far-field truncation, relative bias < 1e-3 at alpha > 3).
_MAX_MEAN_POINTS = 2000.0
# Most interferer points `_interference` evaluates at once, so that a
# block's float64 temporaries (512 KB each) stay in cache.  Blocks of 2^13
# to 2^18 points timed alike; one block per 4 M-point chunk was slower.
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True, slots=True)
class McEstimate:
    """Empirical probability with its binomial standard error."""

    p_hat: float
    stderr: float
    n: int
    seed: int

    @staticmethod
    def from_count(successes: int, n: int, seed: int) -> "McEstimate":
        p = successes / n
        return McEstimate(p, math.sqrt(p * (1.0 - p) / n), n, seed)


@dataclass(frozen=True, slots=True)
class McOutageReport:
    """Outage estimates for one pair, with per-stage near-user diagnostics."""

    far: McEstimate
    near: McEstimate
    near_stage_sic: McEstimate
    near_stage_own: McEstimate
    joint_counts: tuple[int, int, int, int]  # (nf&nn, nf&~nn, ~nf&nn, ~nf&~nn)


def _filtered_error(u: np.ndarray, E: np.ndarray, V: np.ndarray) -> np.ndarray:
    """chi[n, i] = u^H E_n V e_i for a stack of error draws."""
    return np.einsum("i,nij,jk->nk", u.conj(), E, V)


def _sinr_pair(mu: np.ndarray, chi: np.ndarray, stream: int, beta_k2: float,
               ell_P: np.ndarray | float, I_u: np.ndarray | float,
               noise: float):
    """SIC-stage and own-message SINRs of a near-type receiver."""
    beta_kt2 = 1.0 - beta_k2
    total = np.abs(mu + chi) ** 2
    err_k = np.abs(chi[..., stream]) ** 2
    own_k = total[..., stream]
    cross = total.sum(axis=-1) - own_k
    mu_k2 = abs(mu[stream]) ** 2
    base = I_u + noise
    with np.errstate(divide="ignore"):  # noiseless limits give infinite SINR
        sinr_sic = (ell_P * mu_k2 * beta_kt2
                    / (ell_P * (err_k * beta_kt2 + own_k * beta_k2 + cross)
                       + base))
        sinr_own = (ell_P * mu_k2 * beta_k2
                    / (ell_P * (err_k + cross) + base))
    return sinr_sic, sinr_own


def _draw_distances(mode: str, pair: PairConfig, params: NetworkParams,
                    rng: np.random.Generator, n: int):
    if mode == "conditional":
        return pair.d_k, pair.d_kt
    if params.lambda_b <= 0:
        raise ValueError("distance averaging requires lambda_b > 0")
    # random grouping: the near and far users are ranks 1 and 2 of two draws
    random = mode == "average-random"
    d = _sample_serving_distances(params, rng, (n, 2 if random else 2 * params.K))
    d.sort(axis=1)
    r_k, r_kt = (1, 2) if random else (pair.r_k, pair.r_kt)
    return d[:, r_k - 1], d[:, r_kt - 1]


def _sin2_half_angle(v: np.ndarray) -> np.ndarray:
    """sin^2(phi / 2) for phi = 2 pi v, computed in place of v in [0, 1).

    Uses sin(phi / 2) = 2 t / (1 + t^2) with t = tan(phi / 4) in [0, inf):
    numpy's float64 `tan` is vectorized where `sin` may go through scalar
    libm, and the expression keeps full relative precision.  (pi / 2) v has
    the bits of uniform(0, 2 pi) / 4 drawn from the same raw double v.
    """
    v *= 0.5 * math.pi
    np.tan(v, out=v)
    h = v * v
    h += 1.0
    np.divide(v, h, out=v)
    v **= 2
    v *= 4.0
    return v


def _interference(rng: np.random.Generator, params: NetworkParams, n: int,
                  d_near, d_far, window_radius: float, exclusion: str):
    """Shot-noise path-loss sums seen by both users from one shared BS field,
    evaluated in blocks of whole trials, each trial summed pairwise.

    The draws are those of `rng.poisson` counts, then `rng.random(total)`
    radii, then `rng.uniform(0, 2 pi, total)` angles, and `rng` ends in the
    state they leave; each block draws its share of the radii from `rng`
    and of the angles from a copy advanced past the radii.
    """
    if params.lambda_b <= 0:
        return np.zeros(n), np.zeros(n)
    W = min(window_radius,
            math.sqrt(_MAX_MEAN_POINTS / (params.lambda_b * math.pi)))
    counts = rng.poisson(params.lambda_b * math.pi * W * W, size=n)
    ends = np.cumsum(counts)
    bits = rng.bit_generator
    angles = np.random.Generator(copy.deepcopy(bits))
    angles.bit_generator.advance(int(ends[-1]))  # one word per double
    sums = np.zeros((2, n))
    t0 = p0 = 0
    while t0 < n:
        t1 = max(int(np.searchsorted(ends, p0 + _BLOCK_POINTS, "right")),
                 t0 + 1)
        p1 = int(ends[t1 - 1])
        filled = counts[t0:t1] > 0
        firsts = (ends[t0:t1] - counts[t0:t1] - p0)[filled]
        r = np.sqrt(rng.random(p1 - p0))
        r *= W
        # Squared distance from a user at (d, 0) by the law of cosines,
        # written as (r - d)^2 + 4 r d sin^2(phi / 2): a sum of two
        # nonnegative terms, each to full relative precision even for a
        # point next to the user.
        four_r_hav = _sin2_half_angle(angles.random(p1 - p0))
        four_r_hav *= 4.0 * r
        for i, d in enumerate((d_near, d_far)):
            offs = np.repeat(d[t0:t1], counts[t0:t1]) if np.ndim(d) else d
            w = r - offs
            w **= 2
            w += offs * four_r_hav
            inside = w < offs * offs if exclusion == "serving" else None
            w **= -0.5 * params.alpha
            if inside is not None:
                w[inside] = 0.0
            if firsts.size:  # empty trials keep their zero
                sums[i, t0:t1][filled] = np.add.reduceat(w, firsts)
        t0, p0 = t1, p1
    # advance() dropped the buffered half word, which whole-array draws keep
    end = angles.bit_generator.state
    start = bits.state
    end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
    bits.state = end
    return sums[0], sums[1]


def _chunk_counts(scenario: Scenario, mode: str, n: int,
                  rng: np.random.Generator, pair_index: int,
                  window_radius: float, exclusion: str):
    params = scenario.params
    link = scenario.link(pair_index)
    pair = link.pair
    design, k = scenario.design, pair_index - 1
    V = design.V
    receivers = ((scenario.ests_near[k], design.u_near[k], link.eff_near),
                 (scenario.ests_far[k], design.u_far[k], link.eff_far))

    dists = _draw_distances(mode, pair, params, rng, n)
    fields = _interference(rng, params, n, *dists, window_radius, exclusion)
    sinrs = []  # near receiver first: its errors are drawn first
    for (est, u, eff), d, I_raw in zip(receivers, dists, fields):
        I = params.rho_I * abs(np.sum(u.conj())) ** 2 * I_raw
        mu = u.conj() @ est.H_hat @ V
        chi = _filtered_error(u, sample_error_matrix(est, rng, size=n), V)
        ell_P = params.P * np.asarray(d) ** (-params.alpha)
        noise = params.sigma2 * float(np.linalg.norm(u) ** 2)
        sinrs.append(_sinr_pair(mu, chi, eff.stream, pair.beta_k2, ell_P, I,
                                noise))
    (sinr_sic, sinr_own), (sinr_far, _) = sinrs

    t_far = 2.0 ** pair.R_kt - 1.0
    t_near = 2.0 ** pair.R_k - 1.0
    ok_far = sinr_far >= t_far
    ok_sic = sinr_sic >= t_far
    ok_own = sinr_own >= t_near
    ok_joint = ok_sic & ok_own
    return np.array([np.sum(ok_far & ok_joint), np.sum(ok_far & ~ok_joint),
                     np.sum(~ok_far & ok_joint), np.sum(~ok_far & ~ok_joint),
                     np.sum(ok_sic), np.sum(ok_own)], dtype=np.int64)


def _run(scenario: Scenario, mode: str, n_trials: int, seed: int,
         pair_index: int, window_radius: float, exclusion: str) -> np.ndarray:
    """Counts summed over chunks: the four (far ok, near ok) cells
    (both, far only, near only, neither), then SIC-stage and own-stage
    successes."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
    if exclusion not in ("none", "serving"):
        raise ValueError(f"unknown exclusion rule {exclusion!r}")
    if not window_radius > 0:  # also rejects NaN
        raise ValueError(f"window_radius must be positive, got {window_radius}")
    n_chunks = (n_trials + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    tot = np.zeros(6, dtype=np.int64)
    done = 0
    for i in range(n_chunks):
        n = min(_CHUNK, n_trials - done)
        tot += _chunk_counts(scenario, mode, n,
                             np.random.default_rng(children[i]), pair_index,
                             window_radius, exclusion)
        done += n
    return tot


def estimate_outage(scenario: Scenario, mode: str = "conditional",
                    n_trials: int = 100_000, seed: int = 0,
                    pair_index: int = 1, window_radius: float = 5000.0,
                    exclusion: str = "none") -> McOutageReport:
    """Empirical outage probabilities of one pair.

    Modes: `conditional` fixes the link distances and resamples errors and
    interferers; `average-random` / `average-distance` additionally resample
    the serving distances per the grouping policy.  The far estimate counts
    far-user decoding failures, the near estimate failures of the joint
    (cancel far, decode own) event.
    """
    n11, n10, n01, n00, ok_sic, ok_own = (
        int(v) for v in _run(scenario, mode, n_trials, seed, pair_index,
                             window_radius, exclusion))
    return McOutageReport(
        far=McEstimate.from_count(n01 + n00, n_trials, seed),
        near=McEstimate.from_count(n10 + n00, n_trials, seed),
        near_stage_sic=McEstimate.from_count(n_trials - ok_sic, n_trials, seed),
        near_stage_own=McEstimate.from_count(n_trials - ok_own, n_trials, seed),
        joint_counts=(n11, n10, n01, n00),
    )


def estimate_goodput(scenario: Scenario, n_trials: int = 100_000,
                     seed: int = 0, pair_index: int = 1,
                     mode: str = "conditional",
                     window_radius: float = 5000.0,
                     exclusion: str = "none") -> McEstimate:
    """Empirical delivered rate of one pair, R_k 1{near ok} + R_kt 1{far ok}."""
    joint = estimate_outage(scenario, mode, n_trials, seed, pair_index,
                            window_radius, exclusion).joint_counts
    pair = scenario.link(pair_index).pair
    vals = np.array([pair.R_kt + pair.R_k, pair.R_kt, pair.R_k, 0.0])
    counts = np.array(joint, dtype=float)
    mean = float(np.dot(vals, counts) / n_trials)
    var = float(np.dot((vals - mean) ** 2, counts) / n_trials)
    return McEstimate(mean, math.sqrt(var / n_trials), n_trials, seed)
