"""End-to-end acceptance criteria.

Each test prints one PASS line on success (run with -s to see them all);
shared Monte Carlo grids are computed once per module.  Runtime budgets are
asserted where the criterion states one.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import nomacell as nc
import precoder_loop
from distance_laws import ordered_distance_pdf, serving_distance_cdf
from nomacell import (GroupingPolicy, NetworkParams, PairConfig,
                      build_scenario)
from nomacell.geometry import _sample_serving_distances

RATE_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
SEED = 20240717
FIG5_SEED = 954
KS_1PC = 1.628


def _ok(msg):
    print(f"[PASS] {msg}")


@pytest.fixture(scope="module")
def table_params():
    return NetworkParams()


@pytest.fixture(scope="module")
def conditional_grid(table_params):
    """Analytic and 1e5-draw Monte Carlo values over the Fig-1 rate grid."""
    base = build_scenario(table_params, PairConfig(), seed=SEED)
    rows = []
    t_mc = t_far = t_near = 0.0
    for i, r in enumerate(RATE_GRID):
        sc = base.with_pair_rates(R_k=2 * r, R_kt=r)
        link = sc.link(1)
        t0 = time.monotonic()
        far = nc.far_outage_conditional(link.eff_far, link.pair, table_params)
        t_far += time.monotonic() - t0
        t0 = time.monotonic()
        near = nc.near_outage_conditional_exact(link.eff_near, link.pair,
                                                table_params)
        approx = nc.near_outage_conditional_approx(link.eff_near, link.pair,
                                                   table_params)
        t_near += time.monotonic() - t0
        t0 = time.monotonic()
        mc = nc.estimate_outage(sc, "conditional", 100_000, seed=1000 + i)
        t_mc += time.monotonic() - t0
        rows.append((r, far, near, approx, mc))
    return {"rows": rows, "t_mc": t_mc, "t_far": t_far, "t_near": t_near}


def test_criterion_1_inversion_kernels():
    from scipy.special import erfc
    t0 = time.monotonic()
    assert abs(nc.invert_1d(lambda s: 1 / s, 1.0) - 1.0) <= 1e-7
    assert abs(nc.invert_1d(lambda s: 1 / (s * (s + 1)), 2.0)
               - (1 - math.exp(-2))) <= 1e-7
    assert abs(nc.invert_1d(lambda s: np.exp(-np.sqrt(s)) / s, 1.0)
               - erfc(0.5)) <= 1e-7
    assert abs(nc.invert_2d(lambda s, t: 1 / (s * t), 1.0, 1.0) - 1.0) <= 1e-5
    assert abs(nc.invert_2d(lambda s, t: 1 / ((s + 1) * (t + 2)), 1.0, 0.5)
               - math.exp(-2)) <= 1e-5
    assert abs(nc.invert_2d(lambda s, t: 1 / (s * t * (1 + s + t)), 1.0, 2.0)
               - (1 - math.exp(-1))) <= 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _ok(f"criterion 1: inversion kernels vs analytic pairs ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_2_far_conditional_vs_mc(conditional_grid):
    for r, far, _, _, mc in conditional_grid["rows"]:
        assert -1e-4 <= far.raw <= 1 + 1e-4   # inversion error budget
        assert abs(far.probability - mc.far.p_hat) <= 3 * mc.far.stderr, \
            f"far mismatch at R_kt={r}"
    elapsed = conditional_grid["t_mc"] + conditional_grid["t_far"]
    assert elapsed < 120.0
    _ok(f"criterion 2: far-user conditional outage within 3 MC stderr at "
        f"all {len(RATE_GRID)} rates ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_3_near_exact_vs_mc_and_approx(conditional_grid):
    for r, _, near, approx, mc in conditional_grid["rows"]:
        assert -1e-4 <= near.raw <= 1 + 1e-4  # inversion error budget
        assert abs(near.probability - mc.near.p_hat) <= 3 * mc.near.stderr, \
            f"near mismatch at R_kt={r}"
        assert near.probability <= approx.probability + 3 * mc.near.stderr, \
            f"exact above approx at R_kt={r}"
    elapsed = conditional_grid["t_mc"] + conditional_grid["t_near"]
    assert elapsed < 600.0
    _ok(f"criterion 3: near-user exact within 3 stderr and below the "
        f"approximation at all rates ({elapsed:.1f}s)")


def test_criterion_4_average_lambda_flatness(table_params):
    t0 = time.monotonic()
    policy = GroupingPolicy("random")
    flat_f, flat_n = [], []
    for lam in (1e-5, 1e-4, 1e-3):
        params = NetworkParams(sigma2=0.0, lambda_b=lam)
        link = build_scenario(params, PairConfig(), seed=SEED,
                              policy=policy).link(1)
        flat_f.append(nc.far_outage_average(link.eff_far, link.pair, params,
                                            policy).probability)
        flat_n.append(nc.near_outage_average(link.eff_near, link.pair, params,
                                             policy).probability)
    assert max(flat_f) - min(flat_f) <= 1e-6 * flat_f[0]
    assert max(flat_n) - min(flat_n) <= 1e-6 * flat_n[0]

    noisy = {}
    for lam in (1e-7, 1e-5):
        params = replace(table_params, lambda_b=lam)
        link = build_scenario(params, PairConfig(), seed=SEED,
                              policy=policy).link(1)
        noisy[lam] = (nc.far_outage_average(link.eff_far, link.pair, params,
                                            policy).probability,
                      nc.near_outage_average(link.eff_near, link.pair, params,
                                             policy).probability)
    assert noisy[1e-7][0] > noisy[1e-5][0]
    assert noisy[1e-7][1] > noisy[1e-5][1]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(f"criterion 4: interference-limited averages flat to 1e-6 and "
        f"low-intensity degradation reproduced ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_5_grouping_policy_ordering(table_params):
    rnd, dst = GroupingPolicy("random"), GroupingPolicy("distance")
    sc_r = build_scenario(table_params, PairConfig(), seed=SEED, policy=rnd)
    sc_d = build_scenario(table_params, PairConfig(), seed=SEED, policy=dst)
    for i, r in enumerate(RATE_GRID):
        lr = sc_r.with_pair_rates(R_k=2 * r, R_kt=r)
        ld = sc_d.with_pair_rates(R_k=2 * r, R_kt=r)
        p_rnd = nc.near_outage_average(lr.link(1).eff_near, lr.link(1).pair,
                                       table_params, rnd).probability
        p_dst = nc.near_outage_average(ld.link(1).eff_near, ld.link(1).pair,
                                       table_params, dst).probability
        assert p_dst <= p_rnd, f"analytic ordering violated at R_kt={r}"
        mc_r = nc.estimate_outage(lr, "average-random", 60_000, seed=2000 + i)
        mc_d = nc.estimate_outage(ld, "average-distance", 60_000, seed=3000 + i)
        band = 3 * math.hypot(mc_r.near.stderr, mc_d.near.stderr)
        assert mc_d.near.p_hat <= mc_r.near.p_hat + band, \
            f"MC ordering violated at R_kt={r}"
        assert abs(mc_r.near.p_hat - p_rnd) <= 3 * mc_r.near.stderr
        assert abs(mc_d.near.p_hat - p_dst) <= 3 * mc_d.near.stderr
    _ok("criterion 5: distance-based grouping improves the near user at "
        "every rate, analytically and by MC")


def test_criterion_6_asymptotic_cliff():
    t0 = time.monotonic()
    free = NetworkParams(lambda_b=0.0)
    base = build_scenario(free, PairConfig(), k_factor_db=20.0, seed=SEED)
    link = base.link(1)
    th = nc.rate_thresholds(link.eff_far, link.eff_near, link.pair, free)
    # sigma_h2 ladder {1e-2 .. 1e-6} x baseline corresponds to +20..+60 dB
    ladder_db = (40.0, 50.0, 60.0, 70.0, 80.0)
    below, above = [], []
    for kdb in ladder_db:
        sc = build_scenario(free, PairConfig(), k_factor_db=kdb, seed=SEED)
        l = sc.link(1)
        below.append(nc.far_outage_conditional(
            l.eff_far, l.pair.with_rates(R_kt=0.95 * th.R_kt_max_far),
            free).probability)
        above.append(nc.far_outage_conditional(
            l.eff_far, l.pair.with_rates(R_kt=1.05 * th.R_kt_max_far),
            free).probability)
    assert below[-1] < 1e-3
    assert above[-1] > 0.999
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    _ok(f"criterion 6: outage cliff at the far-rate threshold "
        f"({th.R_kt_max_far:.4f} bps/Hz for the pinned realization, "
        f"{elapsed:.1f}s)")


def test_criterion_7_signal_alignment(table_params):
    rng = np.random.default_rng(77)
    for _ in range(100):
        channels = [(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)),
                     rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
                    for _ in range(2)]
        design = nc.build_precoder(channels, table_params)
        assert np.allclose(np.linalg.norm(design.V, axis=0), 1.0, atol=1e-12)
        for k, (Hn, Hf) in enumerate(channels):
            mu_n = design.u_near[k].conj() @ Hn @ design.V
            mu_f = design.u_far[k].conj() @ Hf @ design.V
            for i in range(2):
                if i != k:
                    assert abs(mu_n[i]) <= 1e-10
                    assert abs(mu_f[i]) <= 1e-10
        # enumeration oracle: no candidate beats the pick
        best = -np.inf
        for perm in itertools.permutations(range(3), 2):
            L = np.eye(3, dtype=complex)[:, list(perm)]
            gs = []
            for Hn, Hf in channels:
                U, _ = precoder_loop.nullspace(Hn, Hf, L)
                z = precoder_loop.combining(U, Hn @ L)
                gs.append((Hn @ L).conj().T @ (U @ z)[:2])
            G = np.column_stack(gs)
            if np.linalg.svd(G, compute_uv=False)[-1] < 1e-12:
                continue
            W = np.linalg.inv(G) @ np.linalg.inv(G).conj().T
            best = max(best, float((1.0 / np.diag(W).real).min()))
        assert design.gamma.min() >= best - 1e-10 * abs(best)
    _ok("criterion 7: alignment residuals, unit norms and min-gain "
        "optimality over 100 random channels")


@pytest.mark.slow
def test_criterion_8_goodput_dominance(table_params):
    t0 = time.monotonic()
    goodputs = []
    for kdb in (10.0, 20.0, 30.0, 40.0):
        aligned = build_scenario(table_params, PairConfig(), k_factor_db=kdb,
                                 seed=SEED)
        plain = build_scenario(table_params, PairConfig(), k_factor_db=kdb,
                               seed=SEED, scheme="plain")
        proposed = nc.maximize_goodput(aligned.link(1), 1e-2, table_params)
        assert proposed.p_near <= 1e-2 + 1e-4
        assert proposed.p_far <= 1e-2 + 1e-4
        baselines = {
            "oma-precoded": nc.baseline_goodput("oma", aligned.link(1), 1e-2,
                                                table_params),
            "oma-plain": nc.baseline_goodput("oma", plain.link(1), 1e-2,
                                             table_params),
            "noma-plain": nc.baseline_goodput("noma", plain.link(1), 1e-2,
                                              table_params),
        }
        for name, sol in baselines.items():
            assert proposed.goodput >= sol.goodput, \
                f"{name} beats the proposed design at {kdb} dB"
        goodputs.append(proposed.goodput)
    assert all(b >= a - 1e-3 * max(a, 1.0)
               for a, b in zip(goodputs, goodputs[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _ok(f"criterion 8: optimized goodput dominates all baselines and is "
        f"nondecreasing in channel quality ({elapsed:.1f}s)")


def test_criterion_9_correlation_effect():
    params = replace(NetworkParams(), lambda_b=1e-7)
    kappas = (0.0, 0.3, 0.6, 0.9)
    values = {}
    for kdb in (0.0, 20.0):
        vals, scs = [], []
        for kap in kappas:
            sc = build_scenario(params, PairConfig(), kappa=kap,
                                k_factor_db=kdb, seed=FIG5_SEED)
            link = sc.link(1)
            vals.append(nc.near_outage_conditional_exact(
                link.eff_near, link.pair, params).probability)
            scs.append(sc)
        values[kdb] = (vals, scs)
    lo_vals, lo_scs = values[0.0]
    hi_vals, hi_scs = values[20.0]
    # analytic tolerance: comparisons resolved beyond 3x the inversion budget
    assert all(a - b > 3e-6 for a, b in zip(lo_vals, lo_vals[1:]))
    assert all(b - a > 3e-6 for a, b in zip(hi_vals, hi_vals[1:]))
    # MC resolution of the extreme-kappa comparison in both regimes
    for vals, scs, sign in ((lo_vals, lo_scs, -1.0), (hi_vals, hi_scs, +1.0)):
        mc0 = nc.estimate_outage(scs[0], "conditional", 100_000, seed=4001)
        mc9 = nc.estimate_outage(scs[-1], "conditional", 100_000, seed=4002)
        diff = sign * (mc9.near.p_hat - mc0.near.p_hat)
        assert diff > 3 * math.hypot(mc0.near.stderr, mc9.near.stderr)
    _ok("criterion 9: error correlation helps at 0 dB and hurts at 20 dB "
        "across the kappa grid")


def test_criterion_10_distribution_oracles(table_params):
    rng = np.random.default_rng(123)
    d = _sample_serving_distances(table_params, rng, size=10_000)
    stat = kstest(d, lambda x: serving_distance_cdf(x, table_params)).statistic
    assert stat < KS_1PC / math.sqrt(len(d))

    draws = np.sort(_sample_serving_distances(table_params, rng,
                                              size=(10_000, 4)), axis=1)
    from scipy.integrate import quad
    second = draws[:, 1]
    grid = np.quantile(second, np.linspace(0.02, 0.98, 49))
    cdf = np.array([quad(lambda y: ordered_distance_pdf(y, 2, 4, table_params),
                         0, x)[0] for x in grid])
    emp = np.searchsorted(np.sort(second), grid, side="right") / len(second)
    assert np.max(np.abs(emp - cdf)) < KS_1PC / math.sqrt(len(second))

    R_t = nc.exponential_covariance(3, 0.9)
    R_r = nc.exponential_covariance(2, 0.9)
    est = nc.ChannelEstimate(np.ones((2, 3), complex), R_t, R_r, 0.1)
    n = 100_000
    E = nc.sample_error_matrix(est, rng, size=n)
    vec = E.transpose(0, 2, 1).reshape(n, -1)
    emp_cov = vec.conj().T @ vec / n
    want = 0.1 * np.kron(R_t.T, R_r)
    var_prod = (np.abs(vec) ** 2).mean(axis=0)
    stderr = np.sqrt(np.outer(var_prod, var_prod) / n)
    assert np.all(np.abs(emp_cov - want) <= 3.0 * stderr + 1e-12)
    _ok("criterion 10: distance samplers pass 1% K-S and the error sampler "
        "matches the Kronecker covariance")
