"""Ground-truth network simulator.

Draws Kronecker estimation errors and shot-noise interferer fields, forms
the three decoding SINRs exactly and counts threshold successes.  Trials
are processed in fixed-size chunks, each with its own substream spawned
from the master seed, so results are reproducible and order-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import sample_serving_distances
from .model import NetworkParams, PairConfig, sample_error_matrix
from .scenario import Scenario

__all__ = [
    "McEstimate",
    "McOutageReport",
    "estimate_outage",
    "estimate_goodput",
]

_CHUNK = 2000
# Cap on the expected interferer count per trial; beyond this the window is
# shrunk (far-field truncation, relative bias < 1e-3 at alpha > 3).
_MAX_MEAN_POINTS = 2000.0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    if mode == "average-random":
        d = sample_serving_distances(params, rng, (n, 2))
        return d.min(axis=1), d.max(axis=1)
    if mode == "average-distance":
        d = sample_serving_distances(params, rng, (n, 2 * params.K))
        d.sort(axis=1)
        return d[:, pair.r_k - 1], d[:, pair.r_kt - 1]
    raise ValueError(f"unknown mode {mode!r}")


def _interference(rng: np.random.Generator, params: NetworkParams, n: int,
                  d_near, d_far, window_radius: float, exclusion: str):
    """Shot-noise path-loss sums seen by both users from one shared BS field."""
    if params.lambda_b <= 0:
        return np.zeros(n), np.zeros(n)
    W = min(window_radius,
            math.sqrt(_MAX_MEAN_POINTS / (params.lambda_b * math.pi)))
    counts = rng.poisson(params.lambda_b * math.pi * W * W, size=n)
    total = int(counts.sum())
    trial = np.repeat(np.arange(n), counts)
    r = W * np.sqrt(rng.random(total))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=total)
    x, y = r * np.cos(phi), r * np.sin(phi)
    sums = []
    for d in (d_near, d_far):
        offs = d[trial] if np.ndim(d) else d
        dist = np.hypot(x - offs, y)
        w = dist ** (-params.alpha)
        if exclusion == "serving":
            w = np.where(dist < offs, 0.0, w)
        elif exclusion != "none":
            raise ValueError(f"unknown exclusion rule {exclusion!r}")
        sums.append(np.bincount(trial, weights=w, minlength=n))
    return sums[0], sums[1]


def _chunk_counts(scenario: Scenario, mode: str, n: int,
                  rng: np.random.Generator, pair_index: int,
                  window_radius: float, exclusion: str):
    params = scenario.params
    link = scenario.link(pair_index)
    pair = link.pair
    est_n = scenario.ests_near[pair_index - 1]
    est_f = scenario.ests_far[pair_index - 1]
    u_n = scenario.design.u_near[pair_index - 1]
    u_f = scenario.design.u_far[pair_index - 1]
    V = scenario.design.V

    d_near, d_far = _draw_distances(mode, pair, params, rng, n)
    I_n_raw, I_f_raw = _interference(rng, params, n, d_near, d_far,
                                     window_radius, exclusion)
    I_n = params.rho_I * abs(np.sum(u_n.conj())) ** 2 * I_n_raw
    I_f = params.rho_I * abs(np.sum(u_f.conj())) ** 2 * I_f_raw

    mu_n = u_n.conj() @ est_n.H_hat @ V
    mu_f = u_f.conj() @ est_f.H_hat @ V
    chi_n = _filtered_error(u_n, sample_error_matrix(est_n, rng, size=n), V)
    chi_f = _filtered_error(u_f, sample_error_matrix(est_f, rng, size=n), V)

    ell_P_n = params.P * np.asarray(d_near) ** (-params.alpha)
    ell_P_f = params.P * np.asarray(d_far) ** (-params.alpha)
    noise_n = params.sigma2 * float(np.linalg.norm(u_n) ** 2)
    noise_f = params.sigma2 * float(np.linalg.norm(u_f) ** 2)

    sinr_sic, sinr_own = _sinr_pair(mu_n, chi_n, link.eff_near.stream,
                                    pair.beta_k2, ell_P_n, I_n, noise_n)
    sinr_far, _ = _sinr_pair(mu_f, chi_f, link.eff_far.stream, pair.beta_k2,
                             ell_P_f, I_f, noise_f)

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
