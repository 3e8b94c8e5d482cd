import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nomacell import (NetworkParams, PairConfig, build_scenario,
                      estimate_goodput, estimate_outage, far_outage_conditional,
                      near_outage_conditional_approx,
                      near_outage_conditional_exact)
from nomacell import montecarlo
from nomacell.montecarlo import _chunk_counts, _interference, _sinr_pair


def _hand_sinrs(V, u_n, u_f, Hn_hat, Hf_hat, E_n, E_f, pair, dists, params):
    """Spreadsheet-style recomputation of the three SINRs with plain loops."""
    b2 = pair.beta_k2
    bt2 = 1.0 - b2
    K = V.shape[1]

    def inner(u, H, E, d, stream):
        ell_P = params.P * d ** (-params.alpha)
        mu = [sum(u[a].conjugate() * H[a, b] * V[b, i] for a in range(len(u))
                  for b in range(V.shape[0])) for i in range(K)]
        chi = [sum(u[a].conjugate() * E[a, b] * V[b, i] for a in range(len(u))
                   for b in range(V.shape[0])) for i in range(K)]
        I = params.rho_I * abs(sum(u).conjugate()) ** 2 * sum(
            dd ** -params.alpha for dd in dists)
        noise = params.sigma2 * sum(abs(x) ** 2 for x in u)
        cross = sum(abs(mu[i] + chi[i]) ** 2 for i in range(K) if i != stream)
        err = abs(chi[stream]) ** 2
        own = abs(mu[stream] + chi[stream]) ** 2
        sig = abs(mu[stream]) ** 2
        sic = ell_P * sig * bt2 / (ell_P * (err * bt2 + own * b2 + cross)
                                   + I + noise)
        dec = ell_P * sig * b2 / (ell_P * (err + cross) + I + noise)
        return sic, dec

    sic, own = inner(u_n, Hn_hat, E_n, pair.d_k, 0)
    far, _ = inner(u_f, Hf_hat, E_f, pair.d_kt, 0)
    return sic, own, far


def _sinrs(sc, params, E_n, E_f, dists):
    """(SIC, own, far) SINRs of pair 1 through `_sinr_pair` for one draw."""
    V, (u_n, u_f) = sc.design.V, (sc.design.u_near[0], sc.design.u_far[0])
    pair, out = sc.link(1).pair, []
    for u, est, E, d in ((u_n, sc.ests_near[0], E_n, pair.d_k),
                         (u_f, sc.ests_far[0], E_f, pair.d_kt)):
        I_u = params.rho_I * abs(np.sum(u.conj())) ** 2 * np.sum(
            np.asarray(dists, dtype=float) ** -params.alpha)
        out.append(_sinr_pair(u.conj() @ est.H_hat @ V, u.conj() @ E @ V, 0,
                              pair.beta_k2, params.P * d ** -params.alpha,
                              I_u, params.sigma2 * np.linalg.norm(u) ** 2))
    return float(out[0][0]), float(out[0][1]), float(out[1][0])


class TestSinrTriplet:
    def test_matches_hand_composition(self, table_scenario, table_params, rng):
        sc = table_scenario
        est_n, est_f = sc.ests_near[0], sc.ests_far[0]
        E_n = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        E_f = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        dists = np.array([300.0, 800.0, 2500.0])
        got = _sinrs(sc, table_params, E_n, E_f, dists)
        want = _hand_sinrs(sc.design.V, sc.design.u_near[0], sc.design.u_far[0],
                           est_n.H_hat, est_f.H_hat, E_n, E_f, sc.link(1).pair,
                           dists, table_params)
        assert got == pytest.approx(want, rel=1e-12)

    def test_noiseless_aligned_limit(self):
        # perfect CSI, no interference, vanishing noise, one pair: the SIC
        # stage SINR approaches beta_far^2 / beta_near^2
        params = NetworkParams(M=1, N=1, K=1, lambda_b=0.0, sigma2=0.0)
        sc = build_scenario(params, PairConfig(r_k=1, r_kt=2),
                            k_factor_db=300.0, seed=1)
        got = _sinrs(sc, params, np.zeros((1, 1)), np.zeros((1, 1)),
                     np.array([]))
        assert got[0] == pytest.approx(0.7 / 0.3, rel=1e-9)

    def test_trial_outcome_joint_event(self, table_scenario):
        # the counted near success is the joint (SIC and own) event: with an
        # easy own stage, own-message successes whose SIC failed do not
        # count; the joint table partitions the trials
        n = 3000
        sc = table_scenario.with_pair_rates(R_k=0.25, R_kt=1.25)
        *joint, ok_sic, ok_own = _chunk_counts(
            sc, "conditional", n, np.random.default_rng(8), 1, 5000.0, "none")
        ok_joint = joint[0] + joint[2]
        assert 0 < ok_joint <= ok_sic < ok_own
        assert sum(joint) == n
        rep = estimate_outage(sc, "conditional", n, seed=8)
        assert sum(rep.joint_counts) == n
        n11, n10, n01, n00 = rep.joint_counts
        assert rep.far.p_hat == (n01 + n00) / n
        assert rep.near.p_hat == (n10 + n00) / n
        assert rep.near.p_hat >= max(rep.near_stage_sic.p_hat,
                                     rep.near_stage_own.p_hat)

    def test_no_interferers_equals_zero_power(self, table_scenario,
                                              table_params, rng):
        sc = table_scenario
        E = np.zeros((2, 3))
        no_points = _sinrs(sc, table_params, E, E, np.array([]))
        zero_rho = _sinrs(sc, replace(table_params, rho_I=0.0), E, E,
                          np.array([200.0]))
        assert no_points == pytest.approx(zero_rho, rel=1e-14)


def _cartesian_interference(rng, params, n, d_near, d_far, window_radius,
                            exclusion):
    """The interferer field from Cartesian points and np.hypot distances,
    with the same draws in the same order as `_interference`."""
    W = min(window_radius, math.sqrt(montecarlo._MAX_MEAN_POINTS
                                     / (params.lambda_b * math.pi)))
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
        w = np.where((exclusion == "serving") & (dist < offs), 0.0,
                     dist ** (-params.alpha))
        sums.append(np.bincount(trial, weights=w, minlength=n))
    return sums[0], sums[1]


class TestInterfererField:
    # At lambda_b = 1e-4 points lie close enough to the users that writing
    # the squared distance as 2 r d (1 - cos phi) would miss rel 1e-12.
    @pytest.mark.parametrize("lambda_b", [1e-5, 1e-4])
    @pytest.mark.parametrize("exclusion", ["none", "serving"])
    @pytest.mark.parametrize("mode", ["conditional", "average-distance"])
    def test_matches_cartesian_form(self, monkeypatch, mode, exclusion,
                                    lambda_b):
        params = NetworkParams(lambda_b=lambda_b)
        sc = build_scenario(params, PairConfig(), seed=20240717)
        d_near, d_far = montecarlo._draw_distances(
            mode, sc.link(1).pair, params, np.random.default_rng(4), 2000)
        args = (params, 2000, d_near, d_far, 5000.0, exclusion)
        got = _interference(np.random.default_rng(3), *args)
        want = _cartesian_interference(np.random.default_rng(3), *args)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)

        def counts():
            return _chunk_counts(sc, mode, 2000, np.random.default_rng(3), 1,
                                 5000.0, exclusion)

        fast = counts()
        monkeypatch.setattr(montecarlo, "_interference",
                            _cartesian_interference)
        assert np.array_equal(fast, counts())


def _whole_field_interference(rng, params, n, d_near, d_far, window_radius,
                              exclusion):
    """The interferer field with the kernel's expressions evaluated over the
    whole field at once, drawn as whole arrays and summed by one reduceat
    over all points."""
    W = min(window_radius, math.sqrt(montecarlo._MAX_MEAN_POINTS
                                     / (params.lambda_b * math.pi)))
    counts = rng.poisson(params.lambda_b * math.pi * W * W, size=n)
    total = int(counts.sum())
    trial = np.repeat(np.arange(n), counts)
    r = W * np.sqrt(rng.random(total))
    t = np.tan(rng.uniform(0.0, 2.0 * math.pi, size=total) / 4.0)
    four_r_hav = 4.0 * r * (4.0 * (t / (1.0 + t * t)) ** 2)
    filled = counts > 0
    firsts = (np.cumsum(counts) - counts)[filled]
    sums = []
    for d in (d_near, d_far):
        offs = d[trial] if np.ndim(d) else d
        dist2 = (r - offs) ** 2 + offs * four_r_hav
        w = np.where((exclusion == "serving") & (dist2 < offs * offs), 0.0,
                     dist2 ** (-0.5 * params.alpha))
        s = np.zeros(n)
        s[filled] = np.add.reduceat(w, firsts)
        sums.append(s)
    return sums[0], sums[1]


class TestBlockSize:
    # The field is evaluated in blocks of whole trials; each trial's points
    # are summed pairwise on their own, so the block size must not move a
    # bit.
    @pytest.mark.parametrize("block", [1, 777])
    @pytest.mark.parametrize("exclusion", ["none", "serving"])
    @pytest.mark.parametrize("mode", ["conditional", "average-distance"])
    @pytest.mark.parametrize("lambda_b, window, n", [
        (1e-6, 1000.0, 2000),  # mean 3.1 points: ~4% of trials are empty
        (1e-4, 5000.0, 60),    # ~2,000 points: every trial exceeds a block
    ])
    def test_sums_do_not_depend_on_block_size(self, monkeypatch, lambda_b,
                                              window, n, mode, exclusion,
                                              block):
        params = NetworkParams(lambda_b=lambda_b)
        d_near, d_far = montecarlo._draw_distances(
            mode, PairConfig(), params, np.random.default_rng(4), n)
        args = (params, n, d_near, d_far, window, exclusion)
        mean = min(lambda_b * math.pi * window ** 2,
                   montecarlo._MAX_MEAN_POINTS)
        counts = np.random.default_rng(3).poisson(mean, size=n)
        if lambda_b < 1e-5:
            assert 0 < np.sum(counts == 0) < n // 10
        else:
            assert counts.min() > 777
        default = _interference(np.random.default_rng(3), *args)
        monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", block)
        blocked = _interference(np.random.default_rng(3), *args)
        for a, b in zip(default, blocked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("exclusion", ["none", "serving"])
    @pytest.mark.parametrize("mode", ["conditional", "average-distance"])
    def test_same_bits_as_whole_field(self, mode, exclusion):
        # the same expressions summed in the same order: equal to the bit,
        # on a field of ~10 blocks
        params = NetworkParams(lambda_b=1e-4)
        d_near, d_far = montecarlo._draw_distances(
            mode, PairConfig(), params, np.random.default_rng(4), 300)
        args = (params, 300, d_near, d_far, 5000.0, exclusion)
        got = _interference(np.random.default_rng(3), *args)
        want = _whole_field_interference(np.random.default_rng(3), *args)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestFieldKernel:
    def test_half_angle_matches_sin(self):
        # the kernel's tan form of sin^2(phi / 2) against the sin form on
        # the same uniform(0, 2 pi) draws, with the end points of [0, 1)
        v = np.random.default_rng(12).random(200_000)
        v = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53], v])
        phi = 2.0 * math.pi * v
        want = np.sin(0.5 * phi) ** 2
        got = montecarlo._sin2_half_angle(v.copy())
        assert got[0] == 0.0 == want[0]
        np.testing.assert_allclose(got[1:], want[1:], rtol=2e-15, atol=0)

    @pytest.mark.parametrize("lambda_b", [1e-6, 1e-4])
    def test_leaves_the_stream_where_whole_draws_do(self, lambda_b):
        # the radii and angles come block by block from two positions of
        # the stream; afterwards the generator, its buffered half word
        # included, is where poisson, random(total) and uniform(0, 2 pi,
        # total) leave it
        n, window = 300, 1000.0
        params = NetworkParams(lambda_b=lambda_b)
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        for g in (rng, twin):
            g.integers(0, 2 ** 31, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
        _interference(rng, params, n, 40.0, 90.0, window, "none")
        W = min(window, math.sqrt(montecarlo._MAX_MEAN_POINTS
                                  / (lambda_b * math.pi)))
        total = int(twin.poisson(lambda_b * math.pi * W * W, size=n).sum())
        twin.random(total)
        twin.uniform(0.0, 2.0 * math.pi, size=total)
        assert rng.bit_generator.state == twin.bit_generator.state
        nexts = [(g.integers(0, 2 ** 31, size=3, dtype=np.int32).tolist(),
                  g.random(3).tolist()) for g in (rng, twin)]
        assert nexts[0] == nexts[1]

    @pytest.mark.parametrize("exclusion", ["none", "serving"])
    def test_memory_is_one_block(self, exclusion):
        # one chunk at ~2,000 points per trial: the whole-chunk draw arrays
        # alone would take 2 x 32 MB
        params = NetworkParams(lambda_b=1e-4)
        d_near, d_far = montecarlo._draw_distances(
            "average-distance", PairConfig(), params,
            np.random.default_rng(4), montecarlo._CHUNK)
        tracemalloc.start()
        try:
            _interference(np.random.default_rng(3), params, montecarlo._CHUNK,
                          d_near, d_far, 5000.0, exclusion)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# Counts of `_run` (both, far only, near only, neither, SIC ok, own ok) at
# the Table defaults, seed 11, 2,500 trials: one full chunk and a partial
# one.  Any change to the simulator's draws shows here.  A change of the
# arithmetic by a few ulp shows only if it moves an SINR across its
# threshold, which is rare: the field's bits are pinned by
# `test_same_bits_as_whole_field` and its accuracy by
# `test_matches_cartesian_form`.  The serving rows at 1e-5 and 1e-4 have
# no failure, so they pin little.
PINNED_COUNTS = {
    (1e-7, "conditional", "none"): [2500, 0, 0, 0, 2500, 2500],
    (1e-7, "average-random", "none"): [1808, 272, 220, 200, 2337, 2028],
    (1e-7, "average-distance", "none"): [1762, 102, 544, 92, 2427, 2306],
    (1e-7, "average-distance", "serving"): [2304, 1, 195, 0, 2500, 2499],
    (1e-5, "conditional", "none"): [2323, 69, 105, 3, 2467, 2428],
    (1e-5, "average-random", "none"): [1986, 265, 128, 121, 2336, 2114],
    (1e-5, "average-distance", "none"): [2010, 143, 297, 50, 2426, 2307],
    (1e-5, "average-distance", "serving"): [2500, 0, 0, 0, 2500, 2500],
    (1e-4, "conditional", "none"): [1052, 400, 693, 355, 2176, 1745],
    (1e-4, "average-random", "none"): [1963, 258, 149, 130, 2322, 2112],
    (1e-4, "average-distance", "none"): [1981, 126, 342, 51, 2428, 2323],
    (1e-4, "average-distance", "serving"): [2500, 0, 0, 0, 2500, 2500],
}


@pytest.mark.parametrize("lambda_b, mode, exclusion", list(PINNED_COUNTS))
def test_pinned_counts(lambda_b, mode, exclusion):
    sc = build_scenario(NetworkParams(lambda_b=lambda_b), PairConfig(),
                        seed=20240717)
    got = montecarlo._run(sc, mode, 2500, 11, 1, 5000.0, exclusion)
    assert got.tolist() == PINNED_COUNTS[lambda_b, mode, exclusion]


class TestArgumentChecks:
    @pytest.mark.parametrize("pair_index", [0, -1, 3])
    def test_link_rejects_pair_index_outside_pairs(self, table_scenario,
                                                   pair_index):
        assert len(table_scenario.links) == 2
        with pytest.raises(ValueError, match="pair_index"):
            table_scenario.link(pair_index)

    def test_link_keeps_pair_order(self, table_scenario):
        assert table_scenario.link(1) is table_scenario.links[0]
        assert table_scenario.link(2) is table_scenario.links[1]

    @pytest.mark.parametrize("pair_index", [0, 3])
    def test_simulator_rejects_pair_index_outside_pairs(self, table_scenario,
                                                        pair_index):
        with pytest.raises(ValueError, match="pair_index"):
            estimate_outage(table_scenario, n_trials=100,
                            pair_index=pair_index)

    @pytest.mark.parametrize("lambda_b, kwargs, match", [
        (0.0, {"exclusion": "bogus"}, "exclusion"),
        (1e-5, {"window_radius": 0.0}, "window_radius"),
        (1e-5, {"window_radius": -5.0}, "window_radius"),
        (1e-5, {"window_radius": math.nan}, "window_radius"),
        (0.0, {"mode": "bogus"}, "unknown mode"),
    ], ids=["exclusion", "window-zero", "window-negative", "window-nan",
            "mode"])
    def test_rejected_before_any_draw(self, monkeypatch, table_pair,
                                      lambda_b, kwargs, match):
        sc = build_scenario(NetworkParams(lambda_b=lambda_b), table_pair,
                            seed=3)

        def no_draws(*args):
            raise AssertionError("drew trials before checking arguments")

        monkeypatch.setattr(montecarlo, "_chunk_counts", no_draws)
        with pytest.raises(ValueError, match=match):
            estimate_outage(sc, n_trials=100, **kwargs)


class TestEstimateOutage:
    def test_seed_determinism(self, table_scenario):
        a = estimate_outage(table_scenario, "conditional", 5000, seed=42)
        b = estimate_outage(table_scenario, "conditional", 5000, seed=42)
        assert a.far.p_hat == b.far.p_hat
        assert a.near.p_hat == b.near.p_hat
        c = estimate_outage(table_scenario, "conditional", 5000, seed=43)
        assert (a.far.p_hat, a.near.p_hat) != (c.far.p_hat, c.near.p_hat)

    def test_vanishing_rates(self, table_scenario):
        sc = table_scenario.with_pair_rates(R_k=1e-9, R_kt=1e-9)
        rep = estimate_outage(sc, "conditional", 5000, seed=1)
        assert rep.far.p_hat <= 0.01
        assert rep.near.p_hat <= 0.01

    def test_joint_below_stage_marginals(self, table_scenario):
        rep = estimate_outage(table_scenario, "conditional", 20000, seed=5)
        joint_success = 1 - rep.near.p_hat
        assert joint_success <= 1 - rep.near_stage_sic.p_hat + 1e-12
        assert joint_success <= 1 - rep.near_stage_own.p_hat + 1e-12

    def test_stderr_formula(self, table_scenario):
        rep = estimate_outage(table_scenario, "conditional", 5000, seed=2)
        p = rep.far.p_hat
        assert rep.far.stderr == pytest.approx(math.sqrt(p * (1 - p) / 5000))

    def test_window_truncation_insensitive(self, table_scenario):
        # beyond the far-field radius the estimate moves less than a
        # standard error
        a = estimate_outage(table_scenario, "conditional", 40000, seed=9,
                            window_radius=5000.0)
        b = estimate_outage(table_scenario, "conditional", 40000, seed=9,
                            window_radius=9000.0)
        assert abs(a.far.p_hat - b.far.p_hat) <= max(a.far.stderr, 1e-4)

    def test_average_mode_requires_intensity(self, table_pair):
        params = NetworkParams(lambda_b=0.0)
        sc = build_scenario(params, table_pair, seed=3)
        with pytest.raises(ValueError):
            estimate_outage(sc, "average-random", 100, seed=0)

    def test_decorrelated_matches_approximation(self, table_scenario,
                                                table_params):
        # with fixed distances, independent draws per stage make the near
        # success probability q_sic * q_own, the sampling counterpart of the
        # independence approximation; both factors come from the same draws,
        # so the delta-method variance carries their covariance
        approx = near_outage_conditional_approx(
            table_scenario.link(1).eff_near, table_scenario.link(1).pair,
            table_params).probability
        n = 160_000
        rep = estimate_outage(table_scenario, "conditional", n, seed=17)
        q_sic = 1.0 - rep.near_stage_sic.p_hat
        q_own = 1.0 - rep.near_stage_own.p_hat
        q_joint = 1.0 - rep.near.p_hat
        var = (q_own ** 2 * q_sic * (1.0 - q_sic)
               + q_sic ** 2 * q_own * (1.0 - q_own)
               + 2.0 * q_sic * q_own * (q_joint - q_sic * q_own)) / n
        assert abs(1.0 - q_sic * q_own - approx) <= 3 * math.sqrt(var)

    def test_second_pair_through_the_public_operators(self, table_scenario,
                                                      table_params):
        # the link carries its own stream: pair 2's operators need no
        # extra argument to match the simulator's pair 2
        link = table_scenario.link(2)
        rep = estimate_outage(table_scenario, "conditional", 20000, seed=31,
                              pair_index=2)
        far = far_outage_conditional(link.eff_far, link.pair, table_params)
        near = near_outage_conditional_exact(link.eff_near, link.pair,
                                             table_params)
        assert abs(far.probability - rep.far.p_hat) <= 4 * rep.far.stderr
        assert abs(near.probability - rep.near.p_hat) <= 4 * rep.near.stderr


class TestEstimateGoodput:
    def test_zero_rates(self, table_scenario):
        sc = table_scenario.with_pair_rates(R_k=0.0, R_kt=0.0)
        est = estimate_goodput(sc, 2000, seed=1)
        assert est.p_hat == 0.0

    def test_stderr_matches_the_spread_over_seeds(self):
        # the reported stderr is the spread of the estimate: over 400
        # independent seeds, std(p_hat) / rms(stderr) stays near 1
        params = NetworkParams(lambda_b=0.0)
        sc = build_scenario(params, PairConfig(R_k=2.0, R_kt=1.0),
                            k_factor_db=10.0, seed=20240717)
        ests = [estimate_goodput(sc, 500, seed=s) for s in range(400)]
        spread = np.std([e.p_hat for e in ests], ddof=1)
        rms = math.sqrt(np.mean([e.stderr ** 2 for e in ests]))
        assert 0.85 <= spread / rms <= 1.15

    def test_outage_free_limit(self):
        params = NetworkParams(lambda_b=0.0)
        sc = build_scenario(params, PairConfig(R_k=0.6, R_kt=0.3),
                            k_factor_db=60.0, seed=20240717)
        est = estimate_goodput(sc, 5000, seed=4)
        assert est.p_hat == pytest.approx(0.9, abs=1e-6)
