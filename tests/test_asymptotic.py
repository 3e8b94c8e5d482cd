import math

import numpy as np
import pytest

from nomacell import (NetworkParams, PairConfig, build_scenario,
                      far_outage_conditional, near_outage_conditional_exact,
                      optimize_chernoff_far, optimize_chernoff_near,
                      rate_thresholds)
from nomacell import asymptotic

FREE = NetworkParams(lambda_b=0.0)


def _bound(eff, pair, params, s, far):
    """The far user's Chernoff bound, or the near user's Chernoff + union
    bound, at the normalized parameter s."""
    bound, _ = asymptotic._chernoff(
        eff, asymptotic._bound_stages(eff, pair, params, far))
    return bound(s)


def _array_bound(eff, stages):
    """The Chernoff bound of `asymptotic._chernoff` over numpy arrays, and
    at each s the magnitude of its exponent's terms, which scales the
    rounding error of each exp."""
    ups = eff.delta / eff.sigma_h2
    terms = [(tau, asymptotic._projected_mean(eff, scale))
             for scale, tau in stages]

    def bound(s):
        logs = np.log1p(-s * ups)
        total, size = 0.0, 0.0
        for tau, zeta2 in terms:
            parts = zeta2 / (s * ups - 1.0)
            expo = -np.sum(logs) - s / eff.sigma_h2 * (tau + np.sum(parts))
            total += np.exp(min(expo, 700.0))
            size = max(size, 1.0 + np.sum(np.abs(logs)) + s / eff.sigma_h2
                       * (abs(tau) + np.sum(np.abs(parts))))
        return float(total), float(size)

    return bound


@pytest.fixture(scope="module")
def free_link():
    return build_scenario(FREE, PairConfig(), k_factor_db=20.0,
                          seed=20240717).link(1)


class TestChernoffBounds:
    def test_dominates_exact_when_resolvable(self, free_link):
        # compare only where the inversion can resolve the true value; the
        # bound additionally gets the 1e-4 inversion error budget
        for r in (1.55, 1.6, 1.65):
            pair = free_link.pair.with_rates(R_k=2 * r, R_kt=r)
            exact = far_outage_conditional(free_link.eff_far, pair,
                                           FREE).probability
            assert exact > 1e-4
            bound, _ = optimize_chernoff_far(free_link.eff_far, pair, FREE)
            assert bound >= exact - 1e-4

    def test_near_bound_dominates(self, free_link):
        pair = free_link.pair.with_rates(R_k=3.2, R_kt=1.6)
        exact = near_outage_conditional_exact(free_link.eff_near, pair,
                                              FREE).probability
        bound, _ = optimize_chernoff_near(free_link.eff_near, pair, FREE)
        assert bound >= exact - 1e-4

    def test_bound_decays_with_error_variance(self):
        # rates below the thresholds: the optimized bound must fall as the
        # channel quality improves
        pair = PairConfig(R_k=1.0, R_kt=0.5)
        prev = math.inf
        for k_db in (20.0, 30.0, 40.0):
            link = build_scenario(FREE, pair, k_factor_db=k_db,
                                  seed=20240717).link(1)
            bound, _ = optimize_chernoff_near(link.eff_near, link.pair, FREE)
            assert bound < prev
            prev = bound
        assert prev < 1e-10

    def test_trivial_limit_is_two(self, free_link):
        ups_max = (free_link.eff_near.delta / free_link.eff_near.sigma_h2).max()
        tiny = 1e-12 / ups_max
        val = _bound(free_link.eff_near, free_link.pair, FREE, tiny, False)
        assert val == pytest.approx(2.0, abs=1e-6)

    def test_rejects_out_of_range_parameter(self, free_link):
        ups_max = (free_link.eff_far.delta / free_link.eff_far.sigma_h2).max()
        with pytest.raises(ValueError):
            _bound(free_link.eff_far, free_link.pair, FREE, 1.5 / ups_max,
                   True)
        with pytest.raises(ValueError):
            _bound(free_link.eff_far, free_link.pair, FREE, 0.0, True)

    def test_golden_section_matches_dense_grid(self, free_link):
        pair = free_link.pair.with_rates(R_k=3.0, R_kt=1.5)
        ups_max = (free_link.eff_far.delta / free_link.eff_far.sigma_h2).max()
        s_grid = np.linspace(1e-6, 1 - 1e-6, 20001) / ups_max
        dense = min(_bound(free_link.eff_far, pair, FREE, s, True)
                    for s in s_grid)
        opt, _ = optimize_chernoff_far(free_link.eff_far, pair, FREE)
        assert opt <= dense + 1e-8
        assert abs(opt - dense) <= 1e-8 + 1e-6 * dense

    @pytest.mark.parametrize("k_db", [10.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize("seed", [1, 2, 20240717])
    def test_optimizers_match_a_search_over_fresh_bounds(self, seed, k_db):
        # the optimizers compute the eigenvalues and projected means once
        # per search; a golden search that builds the bound afresh at every
        # step finds the same (bound, s), bit for bit
        link = build_scenario(FREE, PairConfig(), k_factor_db=k_db,
                              seed=seed).link(1)
        for r in (0.5, 1.0, 1.5):
            pair = link.pair.with_rates(R_k=2 * r, R_kt=r)
            for optimize, far, eff in (
                    (optimize_chernoff_far, True, link.eff_far),
                    (optimize_chernoff_near, False, link.eff_near)):
                s_sup = 1.0 / (eff.delta / eff.sigma_h2).max()
                s, val = asymptotic._golden_min(
                    lambda x: _bound(eff, pair, FREE, x, far), 1e-6 * s_sup,
                    (1.0 - 1e-6) * s_sup)
                got = optimize(eff, pair, FREE)
                assert (got[0].hex(), got[1].hex()) == (val.hex(), s.hex())


def test_float_bound_matches_the_array_bound():
    # a fixed population: K in {2, 3}, K-factor 0-50 dB, kappa 0-0.95, both
    # users, s across (0, s_sup).  Within 1e-14 relative, or within four
    # rounding units of the exponent's term magnitude where its terms
    # cancel: other seeded populations reach 2.8e-14 relative, always
    # below one such unit
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for _ in range(60):
        K = int(rng.choice([2, 3]))
        params = NetworkParams(M=K + 1, N=K, K=K, lambda_b=0.0)
        r = float(rng.uniform(0.25, 1.5))
        link = build_scenario(params, PairConfig(R_k=2 * r, R_kt=r),
                              kappa=float(rng.uniform(0.0, 0.95)),
                              k_factor_db=float(rng.uniform(0.0, 50.0)),
                              seed=int(rng.integers(2 ** 31))).link(1)
        for far, eff in ((True, link.eff_far), (False, link.eff_near)):
            stages = asymptotic._bound_stages(eff, link.pair, params, far)
            bound, s_sup = asymptotic._chernoff(eff, stages)
            reference = _array_bound(eff, stages)
            for s in rng.uniform(0.0, 1.0, 8) * s_sup:
                got = bound(float(s))
                want, size = reference(s)
                assert abs(got - want) <= max(1e-14, 4 * eps * size) * want


class TestRateThresholds:
    def test_alignment_closed_form(self, free_link):
        # under exact alignment with negligible noise the far threshold is
        # log2(1 + beta_far^2 / beta_near^2) independent of the realization
        th = rate_thresholds(free_link.eff_far, free_link.eff_near,
                             free_link.pair, FREE)
        want = math.log2(1 + 0.7 / 0.3)
        assert th.R_kt_max_far == pytest.approx(want, abs=5e-4)
        assert th.R_kt_max_near == pytest.approx(want, abs=5e-4)
        assert th.R_k_max_near > th.R_kt_max_near

    def test_pinned_values(self, free_link):
        # one limit per decoding stage, bit for bit
        th = rate_thresholds(free_link.eff_far, free_link.eff_near,
                             free_link.pair, FREE)
        assert (th.R_kt_max_far, th.R_kt_max_near, th.R_k_max_near) == \
            (1.7369076525740923, 1.7369640877462957, 19.354638549168097)

    def test_zero_denominator_sentinel(self):
        params = NetworkParams(lambda_b=0.0, sigma2=0.0, M=1, N=1, K=1)
        from nomacell import ChannelEstimate, effective_channel
        est = ChannelEstimate(np.array([[1.0 + 0j]]), np.eye(1, dtype=complex),
                              np.eye(1, dtype=complex), 0.0)
        eff = effective_channel(est, np.eye(1, dtype=complex), np.ones(1), 0,
                                params)
        th = rate_thresholds(eff, eff, PairConfig(r_k=1, r_kt=2), params)
        assert th.R_k_max_near == math.inf

    def test_thresholds_shrink_toward_feasibility_edge(self, free_link):
        lo = rate_thresholds(free_link.eff_far, free_link.eff_near,
                             PairConfig(beta_k2=0.3), FREE)
        hi = rate_thresholds(free_link.eff_far, free_link.eff_near,
                             PairConfig(beta_k2=0.6), FREE)
        assert hi.R_kt_max_far < lo.R_kt_max_far

    def test_outage_vanishes_below_thresholds(self):
        # geometric ladder of error variances at rates below the bounds
        pair = PairConfig(R_k=1.0, R_kt=0.5)
        vals = []
        for k_db in (20.0, 30.0, 40.0, 50.0, 60.0):
            link = build_scenario(FREE, pair, k_factor_db=k_db,
                                  seed=20240717).link(1)
            vals.append(far_outage_conditional(link.eff_far, link.pair,
                                               FREE).probability)
        assert vals[-1] < 1e-4

    def test_outage_saturates_above_far_threshold(self, free_link):
        th = rate_thresholds(free_link.eff_far, free_link.eff_near,
                             free_link.pair, FREE)
        rate = 1.1 * th.R_kt_max_far
        vals = []
        for k_db in (30.0, 50.0):
            link = build_scenario(FREE, PairConfig(), k_factor_db=k_db,
                                  seed=20240717).link(1)
            pair = link.pair.with_rates(R_kt=rate)
            vals.append(far_outage_conditional(link.eff_far, pair,
                                               FREE).probability)
        assert vals[-1] >= 0.999
