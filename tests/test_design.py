import functools
import itertools
import math

import numpy as np
import pytest

import precoder_loop
from nomacell import (Inversion1DConfig, NetworkParams, PairConfig,
                      alignment_nullspace, baseline_goodput, build_precoder,
                      build_scenario, far_outage_conditional, maximize_goodput,
                      near_outage_conditional_approx,
                      near_outage_conditional_exact)
from nomacell import design, laplace, outage
from nomacell.design import (_bisect_rate_cap, _choose_receiver_combining,
                             _single_stream_goodput)


def _draw_channels(rng, K=2, N=2, M=3):
    return [(rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M)),
             rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M)))
            for _ in range(K)]


class TestAlignmentNullspace:
    def test_dimension_and_residual(self, rng):
        for _ in range(100):
            (Hn, Hf), = _draw_channels(rng, K=1)
            L = np.eye(3, dtype=complex)[:, :2]
            U, degenerate = alignment_nullspace(Hn @ L, Hf @ L)
            assert U.shape == (4, 2)
            assert not degenerate
            C = np.hstack([(Hn @ L).conj().T, -(Hf @ L).conj().T])
            assert np.linalg.norm(C @ U) <= 1e-10
            # orthonormal columns
            assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)

    def test_symmetric_channels_share_filter(self, rng):
        # H_near == H_far: stacked (u; u) lies in the null space whenever
        # (H L)^H u = (H L)^H u, i.e. any u does after differencing
        H = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        L = np.eye(3, dtype=complex)[:, :2]
        U, _ = alignment_nullspace(H @ L, H @ L)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        stacked = np.concatenate([u, u])
        # stacked vector is reproduced by the basis (it lies in the span)
        resid = stacked - U @ (U.conj().T @ stacked)
        assert np.linalg.norm(resid) <= 1e-10

    def test_rejects_k_geq_2n(self, rng):
        H = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        HL = H @ np.eye(4, dtype=complex)[:, :2]
        with pytest.raises(ValueError):
            alignment_nullspace(HL, HL)

    def test_stacked_call_is_the_single_calls(self, rng):
        # leading axes only stack: each matrix gets the single call's bits,
        # and the degenerate mark of a rank-deficient one stays its own
        A_near, A_far = (rng.normal(size=(3, 2, 2, 2))
                         + 1j * rng.normal(size=(3, 2, 2, 2)) for _ in range(2))
        A_near[1, 0, :, 1] = A_near[1, 0, :, 0]
        A_far[1, 0, :, 1] = A_far[1, 0, :, 0]
        U, degenerate = alignment_nullspace(A_near, A_far)
        z = _choose_receiver_combining(U, A_near)
        assert U.shape == (3, 2, 4, 2) and degenerate.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            U1, deg1 = alignment_nullspace(A_near[idx], A_far[idx])
            assert np.array_equal(U[idx], U1)
            assert degenerate[idx] == deg1 == (idx == (1, 0))
            assert np.array_equal(z[idx],
                                  _choose_receiver_combining(U1, A_near[idx]))


class TestReceiverCombining:
    def test_forced_scalar(self):
        z = _choose_receiver_combining(np.ones((4, 1), dtype=complex),
                                       np.ones((2, 2), dtype=complex))
        assert z.shape == (1,)
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-12

    def test_dominates_random_candidates(self, rng):
        Hn = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        Hf = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        L = np.eye(3, dtype=complex)[:, :2]
        U, _ = alignment_nullspace(Hn @ L, Hf @ L)
        z = _choose_receiver_combining(U, Hn @ L)
        gain_map = (Hn @ L).conj().T @ U[:2, :]
        best = np.linalg.norm(gain_map @ z)
        for _ in range(100):
            cand = rng.normal(size=2) + 1j * rng.normal(size=2)
            cand /= np.linalg.norm(cand)
            assert np.linalg.norm(gain_map @ cand) <= best + 1e-12

    def test_phase_invariance(self, rng):
        Hn = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        Hf = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        L = np.eye(3, dtype=complex)[:, :2]
        U, _ = alignment_nullspace(Hn @ L, Hf @ L)
        z = _choose_receiver_combining(U, Hn @ L)
        gain_map = (Hn @ L).conj().T @ U[:2, :]
        g1 = np.linalg.norm(gain_map @ z)
        g2 = np.linalg.norm(gain_map @ (np.exp(1j * 0.7) * z))
        assert g1 == pytest.approx(g2, rel=1e-12)


class TestBuildPrecoder:
    def test_unit_columns_and_alignment(self, rng):
        params = NetworkParams()
        for _ in range(100):
            channels = _draw_channels(rng)
            design = build_precoder(channels, params)
            assert np.allclose(np.linalg.norm(design.V, axis=0), 1.0,
                               atol=1e-12)
            for k, (Hn, Hf) in enumerate(channels):
                mu_n = design.u_near[k].conj() @ Hn @ design.V
                mu_f = design.u_far[k].conj() @ Hf @ design.V
                off = [abs(mu_n[i]) for i in range(2) if i != k]
                off += [abs(mu_f[i]) for i in range(2) if i != k]
                assert max(off) <= 1e-10

    def test_shared_effective_channel(self, rng):
        params = NetworkParams()
        channels = _draw_channels(rng)
        design = build_precoder(channels, params)
        for k, (Hn, Hf) in enumerate(channels):
            g_n = (Hn @ design.L).conj().T @ design.u_near[k]
            g_f = (Hf @ design.L).conj().T @ design.u_far[k]
            assert np.linalg.norm(g_n - g_f) <= 1e-10

    @staticmethod
    def _best_min_gain(channels, M, columns):
        """Largest smallest gain over the selection candidates `columns`,
        re-derived from the alignment filters."""
        N = channels[0][0].shape[0]
        best = -np.inf
        for cols in columns:
            L = np.eye(M, dtype=complex)[:, list(cols)]
            gs = []
            for Hn, Hf in channels:
                U, _ = precoder_loop.nullspace(Hn, Hf, L)
                z = precoder_loop.combining(U, Hn @ L)
                u_k = (U @ z)[:N]
                gs.append((Hn @ L).conj().T @ u_k)
            G = np.column_stack(gs)
            if np.linalg.svd(G, compute_uv=False)[-1] < 1e-12:
                continue
            W = np.linalg.inv(G) @ np.linalg.inv(G).conj().T
            best = max(best, (1.0 / np.diag(W).real).min())
        return best

    @pytest.mark.parametrize("M, N, K", [(3, 2, 2), (4, 3, 3), (5, 3, 3),
                                         (4, 2, 2)])
    def test_pick_maximizes_min_gain_over_candidates(self, rng, M, N, K):
        # brute-force oracle over every ordering, not only every subset:
        # one ordering per subset loses nothing
        params = NetworkParams(M=M, N=N, K=K)
        channels = _draw_channels(rng, K=K, N=N, M=M)
        design = build_precoder(channels, params)
        best = self._best_min_gain(channels, M,
                                   itertools.permutations(range(M), K))
        assert design.gamma.min() == pytest.approx(best, rel=1e-10)

    def test_enumerates_every_subset_before_subsampling(self, rng):
        # 56 subsets of 5 of 8 antennas (6,720 orderings) are all evaluated
        M, N, K = 8, 5, 5
        params = NetworkParams(M=M, N=N, K=K)
        channels = _draw_channels(rng, K=K, N=N, M=M)
        design = build_precoder(channels, params)
        assert "selection_subsampled" not in design.flags
        best = self._best_min_gain(channels, M,
                                   itertools.combinations(range(M), K))
        assert design.gamma.min() == pytest.approx(best, rel=1e-10)

    def test_subsampled_selection_is_reproducible(self, rng):
        # C(15, 7) = 6,435 subsets exceed the enumeration cap
        M, N, K = 15, 7, 7
        params = NetworkParams(M=M, N=N, K=K)
        channels = _draw_channels(rng, K=K, N=N, M=M)
        d1 = build_precoder(channels, params)
        d2 = build_precoder(channels, params)
        assert "selection_subsampled" in d1.flags
        antennas = np.argmax(d1.L, axis=0)
        assert np.array_equal(d1.L, np.eye(M)[:, antennas])
        assert len(set(antennas)) == K
        assert np.array_equal(d1.V, d2.V)

    def test_permutation_stability(self, rng):
        params = NetworkParams()
        channels = _draw_channels(rng)
        d1 = build_precoder(channels, params)
        d2 = build_precoder(channels[::-1], params)
        assert d1.gamma.min() == pytest.approx(d2.gamma.min(), rel=1e-10)
        assert np.allclose(np.sort(d1.gamma), np.sort(d2.gamma))

    def test_scalar_case(self, rng):
        params = NetworkParams(M=1, N=1, K=1)
        H = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        Hf = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
        design = build_precoder([(H, Hf)], params)
        assert abs(abs(design.V[0, 0]) - 1.0) <= 1e-12
        mu = design.u_near[0].conj() @ H @ design.V
        assert abs(mu[0]) ** 2 == pytest.approx(design.gamma[0], rel=1e-10)


def _loop_deviation(got, want):
    """Largest relative deviation of the stacked design `got` from the
    per-candidate loop's (V, u_near, u_far, L, gamma, flags) `want`, after
    checking that both picked the same candidate with the same flags."""
    V, u_near, u_far, L, gamma, flags = want
    assert np.array_equal(got.L, L)
    assert got.flags == flags
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
               for a, b in ((got.V, V), (got.u_near, u_near),
                            (got.u_far, u_far), (got.gamma, gamma)))


class TestStackedPass:
    """`build_precoder` scores every (candidate, pair) in one stacked pass;
    `tests/precoder_loop.py` is the per-candidate loop it replaced."""

    @pytest.mark.parametrize("M, N, K", [(3, 2, 2), (4, 3, 3)])
    def test_bit_identical_to_the_loop(self, M, N, K):
        rng = np.random.default_rng(31)
        params = NetworkParams(M=M, N=N, K=K)
        for _ in range(50):
            channels = _draw_channels(rng, K=K, N=N, M=M)
            got = build_precoder(channels, params)
            assert _loop_deviation(
                got, precoder_loop.build_precoder(channels, params)) == 0.0

    @pytest.mark.parametrize("M, N, K", [(5, 4, 3), (4, 4, 2)])
    def test_matches_the_loop_to_rounding(self, M, N, K):
        # stacked products may take other BLAS kernels at these sizes
        rng = np.random.default_rng(31)
        params = NetworkParams(M=M, N=N, K=K)
        for _ in range(20):
            channels = _draw_channels(rng, K=K, N=N, M=M)
            got = build_precoder(channels, params)
            assert _loop_deviation(
                got, precoder_loop.build_precoder(channels, params)) <= 1e-14

    def test_subsampled_selection_matches_the_loop(self):
        # C(17, 5) = 6,188 subsets exceed the enumeration cap.  Antennas
        # 3g, 3g + 1 and 3g + 2 see one channel, so the drawn candidates
        # that pick the same groups tie exactly and a candidate with two
        # antennas of one group is singular; pair 0's stacked channel has
        # rank K - 1 on every selection, a degenerate null space
        M, N, K = 17, 5, 5
        params = NetworkParams(M=M, N=N, K=K)
        rng = np.random.default_rng(12345)
        group = np.arange(M) // 3

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        channels = [(draw(N, 6)[:, group], draw(N, 6)[:, group])
                    for _ in range(K)]
        low_rank = (draw(2 * N, K - 1) @ draw(K - 1, 6))[:, group]
        channels[0] = (low_rank[:N], low_rank[N:])
        got = build_precoder(channels, params)
        assert got.flags == ("selection_subsampled", "degenerate_null_space")
        assert _loop_deviation(
            got, precoder_loop.build_precoder(channels, params)) <= 1e-14
        drawn = [tuple(c) for c in
                 design._selection_columns(M, K)[0].tolist()]
        chosen = tuple(np.argmax(got.L, axis=0).tolist())
        ties = [i for i, c in enumerate(drawn)
                if np.array_equal(group[list(c)], group[list(chosen)])]
        assert len(ties) > 1 and drawn.index(chosen) == ties[0]

    def test_degenerate_flag_follows_the_chosen_candidate(self):
        # antenna j carries nothing to pair 0, so the candidates holding it
        # have a degenerate null space there; the pick may or may not.  Such
        # a null space has no unique basis (the loop's H @ L feeds LAPACK
        # signed zeros where the gather copies +0), so V and the filters
        # may differ; the pick, its gains and its flags may not
        rng = np.random.default_rng(5)
        params = NetworkParams()
        seen = set()
        for trial in range(12):
            channels = _draw_channels(rng)
            for H in channels[0]:
                H[:, trial % 3] = 0.0
            got = build_precoder(channels, params)
            _, _, _, L, gamma, flags = precoder_loop.build_precoder(channels,
                                                                    params)
            assert np.array_equal(got.L, L) and got.flags == flags
            assert np.allclose(got.gamma, gamma, rtol=1e-14, atol=0.0)
            seen.add(got.flags)
        assert seen == {(), ("degenerate_null_space",)}

    def test_design_arrays_own_their_data(self, rng):
        # a view into the candidate stacks would keep all of them alive
        got = build_precoder(_draw_channels(rng), NetworkParams())
        for arr in (got.V, got.u_near, got.u_far, got.L, got.gamma):
            assert arr.base is None or arr.base.size == arr.size


def _goodput(link, params, **rates):
    """R (1 - p) summed over both users, near user on the approx operator."""
    pair = link.pair.with_rates(**rates)
    return (pair.R_k * (1 - near_outage_conditional_approx(
                link.eff_near, pair, params).probability)
            + pair.R_kt * (1 - far_outage_conditional(
                link.eff_far, pair, params).probability))


class TestGoodput:
    def test_zero_rates_zero_goodput(self, table_scenario, table_params):
        link = table_scenario.link(1)
        assert _goodput(link, table_params, R_k=0.0, R_kt=0.0) == 0.0

    def test_outage_free_limit(self):
        params = NetworkParams(lambda_b=0.0)
        link = build_scenario(params, PairConfig(R_k=0.6, R_kt=0.3),
                              k_factor_db=60.0, seed=20240717).link(1)
        total = _goodput(link, params)
        assert total == pytest.approx(0.9, abs=1e-3)


def _cap_curves():
    """Outage curves for the cap search, each with the rate where it
    crosses its epsilon: step edges at 25 log-spaced rates, logistic curves
    of three relative widths with seeded centres and epsilons, and a curve
    that meets epsilon at the top of the bracket."""
    for edge in np.geomspace(1e-3, 63.9, 25):
        yield pytest.param(lambda R, edge=edge: float(R > edge), 0.01, edge,
                           id=f"step-{edge:.4g}")
    rng = np.random.default_rng(20240717)
    for width in (1e-3, 1e-2, 1e-1):
        for _ in range(3):
            centre = math.exp(rng.uniform(math.log(1e-2), math.log(60.0)))
            w = width * centre
            eps = math.exp(rng.uniform(math.log(1e-4), math.log(0.3)))
            yield pytest.param(
                lambda R, c=centre, w=w: 0.5 + 0.5 * math.tanh((R - c) / (2 * w)),
                eps, centre + w * math.log(eps / (1.0 - eps)),
                id=f"logistic-{width:g}-{centre:.4g}")
    yield pytest.param(lambda R: 1e-3 * R / 64.0, 0.01, math.inf,
                       id="feasible-at-top")


class TestBisectRateCap:
    HI = 64.0

    def _search(self, p, epsilon):
        """Cap of the curve `p`, and the (rate, outage) pairs it evaluated
        below the top of the bracket."""
        evaluated = []

        def recording(R):
            evaluated.append((R, p(R)))
            return evaluated[-1][1]

        cap = _bisect_rate_cap(recording, epsilon, self.HI)
        return cap, [(R, q) for R, q in evaluated if R < self.HI]

    def _max_evaluations(self, edge):
        # bisection's count for a 1e-9 bracket at `edge`, plus the n0 steps
        # ITP may take beyond it
        return (math.ceil(math.log2(self.HI / (design._CAP_RTOL * edge)))
                + design._ITP_N0)

    @pytest.mark.parametrize("p, epsilon, edge", list(_cap_curves()))
    def test_contract_on_curve_family(self, p, epsilon, edge):
        cap, evaluated = self._search(p, epsilon)
        feasible = [R for R, q in evaluated if q <= epsilon]
        assert cap in (self.HI, 0.0) or cap == max(feasible)
        if cap != self.HI:
            assert any(cap < R <= cap + design._CAP_RTOL * R
                       for R, q in evaluated if q > epsilon)
            assert len(evaluated) <= self._max_evaluations(edge)
        else:
            assert p(self.HI) <= epsilon and not evaluated

    def test_stops_at_the_relative_tolerance(self):
        cap, evaluated = self._search(lambda R: float(R > 0.0227), 0.01)
        assert cap <= 0.0227
        bad = min(R for R, _ in evaluated if R > 0.0227)
        assert bad - cap <= 1e-9 * bad
        assert len(evaluated) <= self._max_evaluations(0.0227) == 43

    @pytest.mark.parametrize("share", [1.0, 0.3])
    def test_no_feasible_rate_stops_where_rates_decode_as_zero(self, share):
        # no rate whose threshold 2^(R / share) - 1 rounds to 0 is
        # evaluated, and the search ends when the bracket's midpoint is
        # one: 10 ITP steps and 4 bisections below 64 at share 1, where it
        # took all 60 steps down to 1.4e-17 before
        evaluated = []

        def p(R):
            evaluated.append(R)
            return 1.0

        assert _bisect_rate_cap(p, 0.01, self.HI, share) == 0.0
        assert all(2.0 ** (R / share) - 1.0 > 0.0 for R in evaluated)
        assert 2.0 ** (0.5 * min(evaluated) / share) - 1.0 == 0.0
        assert len(evaluated) <= 15

    def test_feasible_rates_near_zero_are_found(self):
        # feasible rates only below 3e-16: ITP's probe drops below every
        # nonzero threshold, and bisection finds them instead (to 1e-4
        # when the iteration cap ends it)
        cap, _ = self._search(lambda R: float(R > 3e-16), 0.01)
        assert 3e-16 * (1.0 - 1e-4) <= cap <= 3e-16

    def test_iteration_cap_ends_a_search_near_zero(self):
        # feasible rates only below 1e-14: a 1e-9 bracket there takes about
        # 80 bisections, and the search stops after `_CAP_ITERS` evaluations
        cap, evaluated = self._search(lambda R: float(R > 1e-14), 0.01)
        assert 0.0 < cap <= 1e-14
        assert len(evaluated) == design._CAP_ITERS


def _record_near_evaluations(monkeypatch):
    """Dict that collects every exact near-user result the optimizer
    evaluates, keyed by (R_k, R_kt)."""
    used, factory = {}, design._NearJoint

    def recording(*args):
        evaluate = factory(*args)

        def call(R_k, R_kt):
            used[R_k, R_kt] = evaluate(R_k, R_kt)
            return used[R_k, R_kt]

        return call

    monkeypatch.setattr(design, "_NearJoint", recording)
    return used


def _fig7_link(params, scheme, k_db=20.0):
    return build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=k_db,
                          seed=20240717, scheme=scheme).link(1)


def _lambda0_link(params, k_db, seed, scheme="aligned"):
    return build_scenario(params, PairConfig(), k_factor_db=k_db, seed=seed,
                          scheme=scheme).link(1)


def _split_cap(link):
    return math.log2(1 + 1 / link.pair.beta_k2) * (1 - 1e-9)


def _grid_optimum(link, params, epsilon, k_axis, kt_axis):
    """Best goodput among the points of the grid k_axis x kt_axis that meet
    epsilon, each from exact outages at that point.  The one `_NearJoint`
    only shares transform grids, which moves no bit (see
    `test_reused_grids_match_fresh_evaluations`)."""
    near = outage._NearJoint(link.eff_near, link.pair, params)
    best = 0.0
    for R_kt in kt_axis:
        p_far = far_outage_conditional(
            link.eff_far, link.pair.with_rates(R_kt=R_kt), params).probability
        for R_k in k_axis:
            p_near = near(R_k, R_kt).probability
            if max(p_near, p_far) <= epsilon:
                best = max(best, R_k * (1 - p_near) + R_kt * (1 - p_far))
    return best


@pytest.fixture(scope="module")
def table_optimum(table_scenario, table_params):
    """`maximize_goodput` on the table link, solved once per epsilon."""
    return functools.cache(lambda eps: maximize_goodput(
        table_scenario.link(1), eps, table_params))


class TestMaximizeGoodput:
    def test_constraints_hold_at_solution(self, table_scenario, table_optimum):
        link = table_scenario.link(1)
        sol = table_optimum(1e-2)
        assert sol.feasible
        assert sol.p_near <= 1e-2 + 1e-4
        assert sol.p_far <= 1e-2 + 1e-4
        assert link.pair.beta_k2 * (2 ** sol.R_kt - 1) < 1

    def test_epsilon_relaxation_monotone(self, table_optimum):
        prev = -1.0
        for eps in (0.01, 0.1, 0.5):
            sol = table_optimum(eps)
            assert sol.goodput >= prev - 1e-3 * max(prev, 1.0)
            prev = sol.goodput

    def test_epsilon_relaxation_monotone_on_a_sic_bound_link(self):
        # each answer is feasible at the next epsilon, so a search that
        # stops at a local maximum can read lower there (1.199511 at 0.5
        # against 1.251648 at 0.1)
        params = NetworkParams(lambda_b=0.0)
        link = _lambda0_link(params, 30.0, 15, "plain")
        goodputs = [maximize_goodput(link, eps, params).goodput
                    for eps in (0.01, 0.1, 0.5)]
        for lo, hi in zip(goodputs, goodputs[1:]):
            assert hi >= lo * (1 - design._BOX_RTOL)

    def test_unconstrained_optimum_that_gives_up_the_near_user(self):
        # at epsilon = 1 the best pair sends the far rate past the near
        # user's SIC cap, where p_near is about 1: a solution that the
        # corner and its neighbourhood never reach (1.2317 there)
        params = NetworkParams(lambda_b=0.0)
        link = _lambda0_link(params, 30.0, 3, "plain")
        sol = maximize_goodput(link, 1.0, params)
        oracle = _grid_optimum(link, params, 1.0, np.linspace(0.0, 4.0, 3),
                               np.linspace(0.0, _split_cap(link), 60))
        assert oracle > 1.3624
        assert sol.goodput >= oracle * (1 - design._BOX_RTOL)

    def test_unconstrained_matches_dense_grid(self):
        # epsilon = 1 removes the outage constraints; compare against a
        # dense-grid oracle within 1% of the achieved goodput.  The oracle
        # charges the near user the approx outage, which is at least the
        # exact one the optimizer uses, so its maximum is a lower bound on
        # the true maximum.
        params = NetworkParams(lambda_b=0.0)
        link = _lambda0_link(params, 10.0, 20240717)
        sol = maximize_goodput(link, 1.0, params)
        split_cap = _split_cap(link)

        def objective(R_k, R_kt):
            pf = far_outage_conditional(link.eff_far,
                                        link.pair.with_rates(R_kt=R_kt),
                                        params).probability
            pn = near_outage_conditional_approx(
                link.eff_near, link.pair.with_rates(R_k, R_kt),
                params).probability
            return R_k * (1 - pn) + R_kt * (1 - pf)

        dense = max(objective(a, b)
                    for a in np.linspace(0.2, 24.0, 60)
                    for b in np.linspace(split_cap / 60, split_cap, 60))
        assert sol.goodput >= dense * 0.99

    def test_unreachable_epsilon_gives_a_finite_answer(self, monkeypatch):
        # no rate meets 1e-12 on the fig7 link at 20 dB.  Each cap search
        # descends until the SINR threshold 2^R - 1 (at R / share for OMA)
        # rounds to 0, where rates decode as rate 0, and stops there with
        # no feasible rate: the far cap takes 8 evaluations, where it took
        # 61, down to 1.4e-20, and returned a rate of 1.6e-16 at p = 0
        params = NetworkParams()
        link = _fig7_link(params, "aligned")
        counts, search = [], design._bisect_rate_cap

        def counted(p_of_rate, *args):
            counts.append(0)

            def p(R):
                counts[-1] += 1
                return p_of_rate(R)

            return search(p, *args)

        monkeypatch.setattr(design, "_bisect_rate_cap", counted)
        sol = maximize_goodput(link, 1e-12, params)
        assert (sol.feasible, sol.goodput, sol.p_near, sol.p_far) == \
            (False, 0.0, 1.0, 1.0)
        oma = baseline_goodput("oma", link, 1e-12, params)
        assert (oma.feasible, oma.goodput, oma.p_near, oma.p_far) == \
            (False, 0.0, 1.0, 1.0)
        # far cap and SIC cap (which skips its zero top), then both users
        assert len(counts) == 4 and max(counts) <= 15

    @staticmethod
    def _fresh_outages(link, sol, params):
        pair = link.pair.with_rates(sol.R_k, sol.R_kt)
        return (near_outage_conditional_exact(link.eff_near, pair,
                                              params).probability,
                far_outage_conditional(link.eff_far, pair, params).probability)

    @pytest.mark.parametrize("scheme", ["aligned", "plain"])
    def test_corner_is_certified_on_fig7_links(self, monkeypatch, scheme):
        # both constraints bind on the fig7 links at 20 dB: the cap
        # searches and the two probes settle it, with no boundary search
        # (33 near-user evaluations; halving from 64 took 82 and 88)
        params = NetworkParams()
        link = _fig7_link(params, scheme)
        calls = _record_near_evaluations(monkeypatch)
        sol = maximize_goodput(link, 1e-2, params)
        assert sol.feasible
        assert len(calls) <= 45
        assert max(self._fresh_outages(link, sol, params)) <= 1e-2

    def test_sic_bound_link_searches_the_boundary(self, monkeypatch):
        # without interference the near user's SIC stage caps R_kt (1.127)
        # below the far cap (1.256); the near cap there is only 0.234, so the
        # box search takes over (the earlier pattern search reached
        # 2.414468576).  It makes 209 near-user evaluations.
        params = NetworkParams(lambda_b=0.0)
        link = _lambda0_link(params, 10.0, 20240717)
        calls = _record_near_evaluations(monkeypatch)
        sol = maximize_goodput(link, 1e-2, params)
        assert sol.goodput >= 2.414468576
        assert len(calls) <= 230
        assert max(self._fresh_outages(link, sol, params)) <= 1e-2

    def test_interior_optimum_is_found(self, table_scenario, table_params,
                                       table_optimum):
        # neither constraint binds at epsilon = 0.5 (p_near 0.228, p_far
        # 0.199); the earlier pattern search reached 4.552711103
        link = table_scenario.link(1)
        sol = table_optimum(0.5)
        assert sol.goodput >= 4.552711103 * (1 - design._BOX_RTOL)
        assert sol.goodput >= _grid_optimum(
            link, table_params, 0.5, np.linspace(0.0, 6.0, 9),
            np.linspace(0.0, _split_cap(link), 16))

    def test_decoupling_desk_check(self, table_scenario, table_params):
        # joint grid optimization over both pairs' rates equals the
        # concatenation of per-pair solutions on the same grid: outage of a
        # pair only responds to its own rates
        eps = 5e-2
        axes = (np.linspace(0.05, 0.5, 4), np.linspace(0.02, 0.12, 4))

        def table(link):
            out = np.full((4, 4), -np.inf)
            for i, R_k in enumerate(axes[0]):
                for j, R_kt in enumerate(axes[1]):
                    pair = link.pair.with_rates(R_k, R_kt)
                    pf = far_outage_conditional(link.eff_far, pair,
                                                table_params).probability
                    pn = near_outage_conditional_approx(
                        link.eff_near, pair, table_params).probability
                    if pf <= eps and pn <= eps:
                        out[i, j] = R_k * (1 - pn) + R_kt * (1 - pf)
            return out

        t1, t2 = (table(link) for link in table_scenario.links)
        joint_best = max(t1[i, j] + t2[k, l]
                         for i in range(4) for j in range(4)
                         for k in range(4) for l in range(4)
                         if np.isfinite(t1[i, j]) and np.isfinite(t2[k, l]))
        assert joint_best == pytest.approx(t1.max() + t2.max(), abs=1e-12)


@pytest.mark.parametrize("scheme", ["aligned", "plain"])
def test_reused_grids_match_fresh_evaluations(monkeypatch, scheme):
    # every exact near-user value the optimizer used, on the fig7 link at
    # 20 dB, equals a fresh evaluation bit for bit, and a replay in reverse
    # order through one evaluator changes none of them
    params = NetworkParams()
    link = _fig7_link(params, scheme)
    used = _record_near_evaluations(monkeypatch)
    maximize_goodput(link, 1e-2, params)
    monkeypatch.undo()

    def fields(res):
        return res.probability, res.raw, res.flag

    for (R_k, R_kt), res in used.items():
        fresh = near_outage_conditional_exact(
            link.eff_near, link.pair.with_rates(R_k, R_kt), params)
        assert fields(res) == fields(fresh), (R_k, R_kt)

    built, joint = [], outage._near_joint_transform

    def counting(*args):
        F = joint(*args)

        def grid(s, t, **lattice):
            built.append(s.shape)
            return F(s, t, **lattice)

        return grid

    monkeypatch.setattr(outage, "_near_joint_transform", counting)
    evaluate = outage._NearJoint(link.eff_near, link.pair, params)
    alive = 0
    for (R_k, R_kt), res in reversed(used.items()):
        assert fields(evaluate(R_k, R_kt)) == fields(res), (R_k, R_kt)
        alive = max(alive, len(evaluate.grids))
    assert alive <= laplace._MAX_GRIDS
    assert len(built) <= len(used) / 3


@pytest.mark.parametrize("scheme", ["aligned", "plain"])
@pytest.mark.parametrize("k_db", [10.0, 19.0, 19.5, 20.0, 20.5, 21.0, 30.0,
                                  40.0])
def test_fig7_links_need_no_box_search(monkeypatch, scheme, k_db):
    # the fig7 sweep and the benchmark's 19-21 dB goodput stratum: the pair
    # optimizer stops at its corner, and each OMA box search returns the
    # user's outage cap
    params = NetworkParams()
    link = _fig7_link(params, scheme, k_db)
    searches, search = [], design._box_search

    def recording(outages, epsilon, top, start):
        searches.append((top, start, search(outages, epsilon, top, start)))
        return searches[-1][2]

    monkeypatch.setattr(design, "_box_search", recording)
    maximize_goodput(link, 1e-2, params)
    assert searches == []
    baseline_goodput("oma", link, 1e-2, params)
    assert len(searches) == 2
    for top, start, (rates, _) in searches:
        assert rates == start == top


class TestBaselines:
    def test_oma_equal_split_sanity(self):
        # symmetric half split: each user runs at rate/share = 2R and the
        # goodput adds the two independent contributions
        params = NetworkParams(lambda_b=0.0)
        pair = PairConfig(beta_k2=0.5, R_k=1.0, R_kt=1.0, d_k=50.0, d_kt=50.0,
                          r_k=1, r_kt=2)
        link = build_scenario(params, pair, k_factor_db=40.0,
                              seed=20240717).link(1)
        sol = baseline_goodput("oma", link, 0.5, params)
        assert sol.goodput > 0
        assert sol.p_near <= 0.5 and sol.p_far <= 0.5

    def test_oma_goodput_composition(self, table_scenario, table_params):
        link = table_scenario.link(1)
        sol = baseline_goodput("oma", link, 1e-2, table_params)
        R_k, g_n, p_n = _single_stream_goodput(
            link.eff_near, link.pair.d_k, link.pair.beta_k2, 1e-2,
            table_params)
        R_kt, g_f, p_f = _single_stream_goodput(
            link.eff_far, link.pair.d_kt, link.pair.beta_kt2, 1e-2,
            table_params)
        assert sol.goodput == pytest.approx(g_n + g_f, abs=1e-12)
        assert sol.R_k == pytest.approx(R_k)
        assert sol.R_kt == pytest.approx(R_kt)

    @pytest.mark.parametrize("scheme", ["aligned", "plain"])
    def test_oma_cap_searches_are_short_on_fig7_links(self, monkeypatch,
                                                      scheme):
        # the cap search and a short box search settle both users: 34 and
        # 46 single-stream outages per call
        params = NetworkParams()
        link = _fig7_link(params, scheme)
        calls, outage_of = [], design.single_stream_outage_conditional

        def counting(*args):
            calls.append(args)
            return outage_of(*args)

        monkeypatch.setattr(design, "single_stream_outage_conditional",
                            counting)
        sol = baseline_goodput("oma", link, 1e-2, params)
        assert sol.feasible
        assert len(calls) <= 50

    @pytest.mark.parametrize("scheme", ["aligned", "plain"])
    @pytest.mark.parametrize("k_db", [10.0, 20.0, 30.0, 40.0])
    def test_oma_meets_epsilon_on_fig7_links(self, scheme, k_db):
        params = NetworkParams()
        sol = baseline_goodput("oma", _fig7_link(params, scheme, k_db), 1e-2,
                               params)
        assert sol.p_near <= 1e-2 and sol.p_far <= 1e-2

    def test_unknown_scheme_rejected(self, table_scenario, table_params):
        with pytest.raises(ValueError):
            baseline_goodput("tdma", table_scenario.link(1), 0.1, table_params)


@pytest.mark.xfail(strict=True, reason=(
    "the far cap search trusts Euler at the default order, which reads a"
    " raw p_far of -0.014 on this link; an order ladder (ROADMAP item 16)"
    " has to mend it"))
def test_design_meets_epsilon_at_a_high_euler_order():
    # at the default lambda_b the returned rates give p_far = 0.0202 at
    # Euler (40, 200) against epsilon = 0.01 (400,000 Monte Carlo trials,
    # seed 5: 0.02020 +- 0.00022), while the optimizer reports p_far = 0
    params = NetworkParams()
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                          seed=954, scheme="plain").link(1)
    sol = maximize_goodput(link, 1e-2, params)
    res = far_outage_conditional(link.eff_far,
                                 link.pair.with_rates(sol.R_k, sol.R_kt),
                                 params, Inversion1DConfig(m_euler=40, q=200))
    assert res.raw <= 1e-2 + 1e-4
