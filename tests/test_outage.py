import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from distance_laws import ordered_distance_pdf
from nomacell import (ChannelEstimate, GroupingPolicy, Inversion1DConfig,
                      Inversion2DConfig, NetworkParams, PairConfig, build_scenario,
                      effective_channel, exponential_covariance,
                      far_outage_average,
                      far_outage_conditional, invert_1d, invert_2d,
                      near_outage_average,
                      near_outage_conditional_approx, near_outage_conditional_exact,
                      sample_channel_matrix, single_stream_outage_conditional)
from nomacell import design, laplace, maximize_goodput, outage
from nomacell.outage import (_far_stage, _near_abscissae, _projected_mean,
                             _quadform_transform_1d)


def _unit_rows(mat):
    return mat / np.linalg.norm(mat, axis=0, keepdims=True)


def _covariance(eff):
    """Error covariance rebuilt from the stored eigensystem."""
    return (eff.Psi * eff.delta) @ eff.Psi.conj().T


def _closed_form_covariance(est, V, u):
    """sigma_h2 (u^H R_r u) (V^H R_t V)^T of the filtered error u^H E V."""
    quad_r = (u.conj() @ est.R_r @ u).real
    return est.sigma_h2 * quad_r * (V.conj().T @ est.R_t @ V).T


class TestEffectiveChannel:
    def test_zero_error_gives_zero_covariance(self, table_params, rng):
        H = sample_channel_matrix(2, 3, 6.0, rng)
        est = ChannelEstimate(H, exponential_covariance(3, 0.9),
                              exponential_covariance(2, 0.9), 0.0)
        V = _unit_rows(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        eff = effective_channel(est, V, u, 0, table_params)
        assert np.all(eff.delta == 0)
        assert np.allclose(_covariance(eff), 0)

    def test_isotropic_error(self, table_params, rng):
        # identity profiles with orthonormal V: Sigma = sigma_h2 |u|^2 I
        H = sample_channel_matrix(2, 3, 6.0, rng)
        est = ChannelEstimate(H, np.eye(3, dtype=complex),
                              np.eye(2, dtype=complex), 0.04)
        V, _ = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        eff = effective_channel(est, V, u, 0, table_params)
        want = 0.04 * np.linalg.norm(u) ** 2
        assert np.allclose(_covariance(eff), want * np.eye(2), atol=1e-12)
        assert np.allclose(eff.delta, want)

    def test_trace_identity(self, table_params, rng):
        H = sample_channel_matrix(2, 3, 6.0, rng)
        est = ChannelEstimate(H, exponential_covariance(3, 0.9),
                              exponential_covariance(2, 0.9), 0.01)
        V = _unit_rows(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        eff = effective_channel(est, V, u, 0, table_params)
        want = 0.01 * (u.conj() @ est.R_r @ u).real * np.trace(
            V.conj().T @ est.R_t @ V).real
        assert np.trace(_covariance(eff)).real == pytest.approx(want, abs=1e-10)
        # the eigensystem reconstructs the closed-form covariance
        assert np.allclose(_covariance(eff), _closed_form_covariance(est, V, u),
                           atol=1e-10)

    def test_rejects_unnormalized_precoder(self, table_params, rng):
        H = sample_channel_matrix(2, 3, 6.0, rng)
        est = ChannelEstimate(H, np.eye(3, dtype=complex),
                              np.eye(2, dtype=complex), 0.01)
        with pytest.raises(ValueError, match="unit norm"):
            effective_channel(est, 2.0 * np.eye(3, dtype=complex)[:, :2],
                              np.ones(2), 0, table_params)


class TestThresholds:
    def test_formulas(self, table_scenario, table_params):
        link = table_scenario.link(1)
        pair = link.pair
        mu_f2 = abs(link.eff_far.mu[0]) ** 2
        mu_n2 = abs(link.eff_near.mu[0]) ** 2
        b2, bt2 = pair.beta_k2, pair.beta_kt2
        want_tau = (1 / (2 ** pair.R_kt - 1) - b2) * bt2 * mu_f2
        scale, tau_bar = _far_stage(link.eff_far, pair, 0.0)
        assert scale == b2
        assert tau_bar == pytest.approx(want_tau, rel=1e-12)
        theta_sic, theta_own = _near_abscissae(link.eff_near, pair, 0.0)
        assert theta_own == pytest.approx(mu_n2 * b2 / (2 ** pair.R_k - 1),
                                          rel=1e-12)
        assert theta_sic == pytest.approx(mu_n2 * bt2 / (2 ** pair.R_kt - 1),
                                          rel=1e-12)
        noise_f = (link.eff_far.sigma_u2
                   / (table_params.P * pair.d_kt ** -table_params.alpha))
        _, tau = _far_stage(link.eff_far, pair,
                            link.eff_far.noise(pair.d_kt, table_params))
        assert tau == pytest.approx(want_tau - noise_f, rel=1e-12)
        assert tau < tau_bar


class TestFarOutage:
    def test_deterministic_success_limit(self):
        # no interference, no estimation error, rate below the asymptotic
        # bound: outage vanishes
        params = NetworkParams(lambda_b=0.0, sigma2=0.0, M=1, N=1, K=1)
        est = ChannelEstimate(np.array([[1.0 + 0j]]), np.eye(1, dtype=complex),
                              np.eye(1, dtype=complex), 0.0)
        pair = PairConfig(beta_k2=0.3, R_kt=0.5 * math.log2(1 + 0.7 / 0.3),
                          r_k=1, r_kt=2)
        eff = effective_channel(est, np.eye(1, dtype=complex), np.ones(1), 0,
                                params)
        p = far_outage_conditional(eff, pair, params)
        assert p.probability <= 1e-3

    def test_infeasible_rate_split_flag(self, table_scenario, table_params):
        link = table_scenario.link(1)
        pair = link.pair.with_rates(R_kt=3.0)  # beta^2 (2^R - 1) > 1
        res = far_outage_conditional(link.eff_far, pair, table_params)
        assert res.probability == 1.0
        assert res.flag == "infeasible_rate_split"

    def test_monotone_in_rate(self, table_scenario, table_params):
        link = table_scenario.link(1)
        vals = [far_outage_conditional(link.eff_far,
                                       link.pair.with_rates(R_kt=r),
                                       table_params).probability
                for r in np.linspace(0.25, 1.75, 7)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_power_and_error(self, table_scenario, table_params):
        link = table_scenario.link(1)
        # more transmit power, lambda_b = 0: outage cannot grow
        p0 = replace(table_params, lambda_b=0.0)
        lo = far_outage_conditional(link.eff_far, link.pair, p0).probability
        hi = far_outage_conditional(link.eff_far, link.pair,
                                    replace(p0, P=p0.P / 100)).probability
        assert lo <= hi + 1e-9

    @pytest.mark.parametrize("lambda_b", [1e-5, 1e-7, 0.0])
    def test_high_euler_orders_match_reference_on_narrow_forms(self, lambda_b,
                                                               table_pair):
        # high channel quality and far rates give narrow quadratic forms,
        # where the default m = 11, q = 15 misses the 1e-4 inversion budget
        # by up to 3e-2; m = 20, q = 60 must meet it
        params = replace(NetworkParams(), lambda_b=lambda_b)
        orders = Inversion1DConfig(m_euler=20, q=60)
        reference = Inversion1DConfig(A=28.0, m_euler=20, q=200)
        for kdb in (17.0, 25.0, 32.0, 40.0):
            for r in (0.9, 1.2, 1.5):
                link = build_scenario(params, table_pair.with_rates(R_k=2 * r,
                                                                    R_kt=r),
                                      kappa=0.9, k_factor_db=kdb,
                                      seed=20240717).link(1)
                got = far_outage_conditional(link.eff_far, link.pair, params,
                                             orders)
                want = far_outage_conditional(link.eff_far, link.pair, params,
                                              reference)
                assert abs(got.raw - want.raw) <= 1e-4, (kdb, r)

    def test_point_mass_average_matches_conditional(self, table_scenario,
                                                    table_params):
        # collapsing the distance law to a point mass must reproduce the
        # conditional value (shift property of the Laplace transform)
        link = table_scenario.link(1)
        eff, pair = link.eff_far, link.pair
        d = pair.d_kt
        alpha = table_params.alpha
        coeff_i = math.pi * table_params.lambda_b * eff.omega * d * d
        noise = eff.sigma_u2 / table_params.P * d ** alpha

        def phi_point(s):
            return np.exp(-noise * s - coeff_i * s ** (2 / alpha))

        zeta2 = _projected_mean(eff, pair.beta_k2)
        q = invert_1d(_quadform_transform_1d(zeta2, eff.delta, phi_point),
                      _far_stage(eff, pair, 0.0)[1], Inversion1DConfig())
        cond = far_outage_conditional(eff, pair, table_params).probability
        assert abs((1 - q) - cond) <= 1e-6


class TestNearOutage:
    def test_exact_below_approx(self, table_scenario, table_params):
        link = table_scenario.link(1)
        for r in (0.25, 0.75, 1.25):
            pair = link.pair.with_rates(R_k=2 * r, R_kt=r)
            exact = near_outage_conditional_exact(link.eff_near, pair,
                                                  table_params).probability
            approx = near_outage_conditional_approx(link.eff_near, pair,
                                                    table_params).probability
            assert exact <= approx + 2e-4

    def test_deterministic_success_limit(self):
        params = NetworkParams(lambda_b=0.0, sigma2=0.0, M=1, N=1, K=1)
        est = ChannelEstimate(np.array([[1.0 + 0j]]), np.eye(1, dtype=complex),
                              np.eye(1, dtype=complex), 1e-12)
        pair = PairConfig(beta_k2=0.3, R_k=1.0, R_kt=0.5, r_k=1, r_kt=2)
        eff = effective_channel(est, np.eye(1, dtype=complex), np.ones(1), 0,
                                params)
        p = near_outage_conditional_exact(eff, pair, params)
        assert p.probability <= 1e-3

    def test_nonpositive_threshold_returns_one(self, table_scenario,
                                               table_params):
        link = table_scenario.link(1)
        pair = link.pair.with_rates(R_k=30.0)  # drives theta_k negative
        res = near_outage_conditional_exact(link.eff_near, pair, table_params)
        assert res.probability == 1.0
        assert res.flag == "nonpositive_threshold"

    def test_single_pair_own_stage_chi_square(self, table_params, rng):
        # K = 1 with the own-message vector zeroed reduces to the CDF of a
        # single exponential |chi|^2; cross-check against the closed form
        params = NetworkParams(lambda_b=0.0, M=1, N=1, K=1,
                               sigma2=table_params.sigma2)
        est = ChannelEstimate(np.array([[1.2 + 0.5j]]), np.eye(1, dtype=complex),
                              np.eye(1, dtype=complex), 0.05)
        eff = effective_channel(est, np.eye(1, dtype=complex), np.ones(1), 0,
                                params)
        pair = PairConfig(R_k=1.0, R_kt=0.5, r_k=1, r_kt=2)
        res = single_stream_outage_conditional(eff, pair.R_k, pair.d_k, params)
        theta = abs(eff.mu[0]) ** 2 / (2 ** pair.R_k - 1) - eff.sigma_u2 / (
            params.P * pair.d_k ** -params.alpha)
        want = math.exp(-theta / eff.delta[0])
        assert res.probability == pytest.approx(want, abs=1e-6)
        assert _near_abscissae(eff, pair, 0.0)[1] > 0

    def test_monotone_in_error_variance(self, table_pair):
        # same realization, shrinking channel quality: outage cannot drop
        from nomacell import build_scenario
        params = NetworkParams(lambda_b=0.0)
        vals = []
        for k_db in (25.0, 15.0, 5.0):
            sc = build_scenario(params, table_pair, k_factor_db=k_db,
                                seed=20240717)
            link = sc.link(1)
            vals.append(near_outage_conditional_exact(
                link.eff_near, link.pair, params).probability)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


@lru_cache(maxsize=None)
def _random_configurations():
    """20 random (params, effective channel, pair) trials, drawn in order
    from one seed."""
    rng = np.random.default_rng(12345)
    trials = []
    for _ in range(20):
        params = NetworkParams(
            lambda_b=float(rng.choice([0.0, 1e-6, 1e-5, 1e-4])),
            alpha=float(rng.uniform(2.5, 4.5)),
            M=3, N=2, K=2)
        H = sample_channel_matrix(2, 3, 6.0, rng)
        kappa = float(rng.uniform(0.0, 0.95))
        est = ChannelEstimate(H, exponential_covariance(3, kappa),
                              exponential_covariance(2, kappa),
                              float(10 ** rng.uniform(-4, -1)))
        V, _ = np.linalg.qr(rng.normal(size=(3, 2))
                            + 1j * rng.normal(size=(3, 2)))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        eff = effective_channel(est, V, u, 0, params)
        R_kt = float(rng.uniform(0.05, 1.2))
        pair = PairConfig(beta_k2=float(rng.uniform(0.1, 0.45)),
                          R_k=float(rng.uniform(0.05, 2.5)), R_kt=R_kt,
                          d_k=float(rng.uniform(20, 200)),
                          d_kt=float(rng.uniform(60, 400)),
                          r_k=1, r_kt=2)
        trials.append((params, eff, pair))
    return trials


_FAR_MISSES = pytest.mark.xfail(strict=True, reason=(
    "the far user's Euler sum at the default order rings on this trial"
    " (2.6e-2 and 6.3e-3 off); an order ladder (ROADMAP item 16) has to"
    " mend it"))


class TestRandomizedInvariants:
    @pytest.mark.parametrize("trial", [
        pytest.param(t, marks=_FAR_MISSES) if t in (2, 3) else t
        for t in range(20)])
    def test_invariants_over_random_configurations(self, trial):
        # randomized scenario sweep: probabilities stay clamped, raw values
        # stay within the inversion budget and within 1e-4 of Euler at
        # (80, 400), and the exact joint outage never exceeds the
        # stage-independence approximation
        params, eff, pair = _random_configurations()[trial]
        far = far_outage_conditional(eff, pair, params)
        exact = near_outage_conditional_exact(eff, pair, params)
        approx = near_outage_conditional_approx(eff, pair, params)
        for res in (far, exact, approx):
            assert 0.0 <= res.probability <= 1.0
            assert -1e-4 <= res.raw <= 1.0 + 1e-4, res
        assert exact.probability <= approx.probability + 2e-4
        reference = Inversion1DConfig(m_euler=80, q=400)
        for res, operator in ((far, far_outage_conditional),
                              (approx, near_outage_conditional_approx)):
            want = operator(eff, pair, params, reference)
            assert abs(res.raw - want.raw) <= 1e-4, (operator.__name__, res,
                                                     want)


@pytest.mark.parametrize("lambda_b", [1e-5, 1e-7, 0.0])
def test_near_exact_matches_high_order_inversion(lambda_b):
    # 20 seeded links per intensity, with random channel quality, error
    # correlation and rates: the default periods on their half-octave
    # ladder keep the 2D inversion within 1e-6 of a longer, deeper one
    rng = np.random.default_rng({1e-5: 700, 1e-7: 701, 0.0: 702}[lambda_b])
    params = NetworkParams(lambda_b=lambda_b)
    reference = Inversion2DConfig(L=160, p_eps=10)
    for _ in range(20):
        kdb, kappa = float(rng.uniform(15.0, 45.0)), float(rng.uniform(0.0, 0.95))
        pair = PairConfig(R_kt=float(rng.uniform(0.3, 1.8)),
                          R_k=float(rng.uniform(0.5, 4.0)))
        link = build_scenario(params, pair, kappa=kappa, k_factor_db=kdb,
                              seed=int(rng.integers(2 ** 31))).link(1)
        got = near_outage_conditional_exact(link.eff_near, link.pair, params)
        want = near_outage_conditional_exact(link.eff_near, link.pair, params,
                                             reference)
        assert abs(got.raw - want.raw) <= 1e-6, (kdb, kappa, pair)


def _scaled_transforms(monkeypatch, scale):
    """Every 1D inversion the outage operators make sees its transform's
    values multiplied by `scale`."""
    invert = laplace.invert_1d
    monkeypatch.setattr(outage, "invert_1d", lambda F, tau, cfg=None: invert(
        lambda s: F(s) * scale, tau, cfg))


@pytest.mark.parametrize("R_kt", [1.72, 1.74])
def test_interference_free_near_joint_does_not_amplify_rounding(monkeypatch,
                                                                R_kt):
    # the fig6 points at lambda_b = 0, 50 dB: a last-bit change of the
    # conditional transform moves p_near by at most 1e-9 (the 2D route
    # moved it by 5.2e-7 to 2.0e-6 at 1.74)
    params = NetworkParams(lambda_b=0.0)
    link = build_scenario(params, PairConfig(R_k=2 * R_kt, R_kt=R_kt),
                          kappa=0.9, k_factor_db=50.0, seed=20240717).link(1)
    base = near_outage_conditional_exact(link.eff_near, link.pair, params).raw
    for scale in (1 + 1e-15, 1 - 1e-15):
        _scaled_transforms(monkeypatch, scale)
        moved = near_outage_conditional_exact(link.eff_near, link.pair,
                                              params).raw
        assert abs(moved - base) <= 1e-9


def test_optimizer_near_values_do_not_amplify_rounding(monkeypatch):
    # every near-user value the goodput optimizer evaluates on the fig7
    # 40 dB aligned link at lambda_b = 1e-7, where the 2D route's sums
    # moved by up to 7.7e-3 with rounding: a last-bit change of the
    # conditional transform moves none by more than 1e-9 (1.4e-12 measured
    # over the eight fig7 links)
    params = NetworkParams(lambda_b=1e-7)
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=40.0,
                          seed=20240717).link(1)
    used, factory = {}, design._NearJoint

    def recording(*args):
        evaluate = factory(*args)

        def call(R_k, R_kt):
            res = evaluate(R_k, R_kt)
            used[R_k, R_kt] = res.raw
            return res

        return call

    monkeypatch.setattr(design, "_NearJoint", recording)
    maximize_goodput(link, 1e-2, params)
    monkeypatch.undo()
    assert len(used) > 100
    for scale in (1 + 1e-15, 1 - 1e-15):
        _scaled_transforms(monkeypatch, scale)
        evaluate = outage._NearJoint(link.eff_near, link.pair, params)
        for (R_k, R_kt), raw in used.items():
            assert abs(evaluate(R_k, R_kt).raw - raw) <= 1e-9, (R_k, R_kt)


class TestAverageOutage:
    def test_interference_limited_lambda_free(self, table_pair):
        # with sigma2 = 0 the averaged outage is independent of the BS
        # intensity for both users and both policies
        from nomacell import build_scenario
        for policy in (GroupingPolicy("random"), GroupingPolicy("distance")):
            vals_f, vals_n = [], []
            for lam in (1e-5, 1e-3):
                params = NetworkParams(sigma2=0.0, lambda_b=lam)
                sc = build_scenario(params, table_pair, seed=20240717,
                                    policy=policy)
                link = sc.link(1)
                vals_f.append(far_outage_average(link.eff_far, link.pair,
                                                 params, policy).probability)
                vals_n.append(near_outage_average(link.eff_near, link.pair,
                                                  params, policy).probability)
            assert vals_f[0] == pytest.approx(vals_f[1], rel=1e-6)
            assert vals_n[0] == pytest.approx(vals_n[1], rel=1e-6)

    def test_far_average_matches_conditional_quadrature(self, table_params,
                                                        table_pair):
        # independent oracle: integrate the conditional outage against the
        # policy's distance density
        from scipy.integrate import quad
        policy = GroupingPolicy("random")
        sc = build_scenario(table_params, table_pair, seed=20240717,
                            policy=policy)
        link = sc.link(1)
        avg = far_outage_average(link.eff_far, link.pair, table_params,
                                 policy).probability

        def p_cond(d):
            pair_d = PairConfig(link.pair.beta_k2, link.pair.R_k, link.pair.R_kt,
                                link.pair.d_k, d, 1, 2)
            return far_outage_conditional(link.eff_far, pair_d,
                                          table_params).probability

        want, err = quad(lambda d: p_cond(d)
                         * ordered_distance_pdf(d, 2, 2, table_params),
                         1.0, 2500.0, limit=200)
        assert abs(avg - want) <= 5e-6 + 10 * err

    @staticmethod
    def _fig3_link(params, pair, policy):
        """The fig3 preset's link at (R_k, R_kt) = (0.5, 0.25)."""
        sc = build_scenario(params, pair.with_rates(R_k=0.5, R_kt=0.25),
                            kappa=0.9, k_factor_db=20.0, seed=20240717,
                            policy=policy)
        return sc.link(1)

    @pytest.mark.parametrize("variant", ["random", "distance"])
    def test_near_average_matches_conditional_quadrature(
            self, table_params, table_pair, variant):
        # oracle free of the distance-averaged factor: integrate the
        # conditional joint outage against the near user's distance density
        # (from 0, where that density is still positive)
        from scipy.integrate import quad
        policy = GroupingPolicy(variant)
        link = self._fig3_link(table_params, table_pair, policy)
        p = link.pair
        avg = near_outage_average(link.eff_near, p, table_params,
                                  policy).probability
        rank = p.r_k if variant == "distance" else 1
        n_total = policy.order_total(table_params.K)

        def integrand(d):
            pair_d = PairConfig(p.beta_k2, p.R_k, p.R_kt, d, p.d_kt, p.r_k,
                                p.r_kt)
            return (near_outage_conditional_exact(link.eff_near, pair_d,
                                                  table_params).probability
                    * ordered_distance_pdf(d, rank, n_total, table_params))

        want, err = quad(integrand, 0.0, 2500.0, epsabs=1e-10, limit=200)
        assert err <= 1e-9
        assert abs(avg - want) <= 1e-8

    @pytest.mark.parametrize("variant", ["random", "distance"])
    @pytest.mark.parametrize("R_kt", [0.25, 0.5])
    def test_near_average_does_not_amplify_rounding(
            self, monkeypatch, table_params, table_pair, variant, R_kt):
        # a last-bit change of the averaged factor must stay a last-bit
        # change of the outage (about 3e-11 measured at these points)
        policy = GroupingPolicy(variant)
        link = self._fig3_link(table_params, table_pair, policy)
        pair = link.pair.with_rates(R_k=2 * R_kt, R_kt=R_kt)
        factor = outage.policy_laplace_factor

        def p_near(scale):
            monkeypatch.setattr(outage, "policy_laplace_factor",
                                lambda *args: factor(*args) * scale)
            return near_outage_average(link.eff_near, pair, table_params,
                                       policy).raw

        base = p_near(1.0)
        for scale in (1 + 1e-15, 1 - 1e-15):
            assert abs(p_near(scale) - base) <= 1e-9

    def test_near_average_takes_no_inversion_config(self, table_params,
                                                    table_pair):
        # a fifth positional argument must raise, not be read as
        # `interference_limited`, which selects the closed form
        policy = GroupingPolicy("random")
        link = self._fig3_link(table_params, table_pair, policy)
        with pytest.raises(TypeError):
            near_outage_average(link.eff_near, link.pair, table_params,
                                policy, Inversion2DConfig())

    @pytest.mark.parametrize("policy, lambda_b, R_kt", [
        # a distance-policy point that moved by ~1e-4 under A = 20 when
        # the mixture integrals came from adaptive quadrature
        ("distance", 4.105e-7, 0.3557),
        ("random", 1e-7, 0.3), ("random", 1e-6, 1.4), ("random", 1e-5, 0.8),
        ("random", 1e-4, 0.5), ("random", 1e-3, 1.2),
        ("distance", 1e-7, 1.1), ("distance", 1e-6, 0.6),
        ("distance", 1e-5, 1.5), ("distance", 1e-4, 0.25),
        ("distance", 1e-3, 0.9)])
    def test_far_average_stable_across_inversion_settings(self, policy,
                                                          lambda_b, R_kt):
        # the Euler sum multiplies transform error by exp(A / 2), so three
        # parameter sets agree only if the averaged transform is accurate
        policy = GroupingPolicy(policy)
        sc = build_scenario(NetworkParams(), PairConfig(), kappa=0.9,
                            k_factor_db=15.966882330444335, seed=324949951,
                            policy=policy)
        link = sc.with_pair_rates(2.0 * R_kt, R_kt).link(1)
        params = NetworkParams(lambda_b=lambda_b)
        raws = [far_outage_average(link.eff_far, link.pair, params, policy,
                                   cfg).raw
                for cfg in (Inversion1DConfig(m_euler=20, q=60),
                            Inversion1DConfig(A=20.0, m_euler=20, q=60),
                            Inversion1DConfig(A=28.0, m_euler=40, q=200))]
        assert max(raws) - min(raws) <= 1e-6


_RANDOM = GroupingPolicy("random")
_OPERATORS = {
    "far_cond": lambda lk, pair, params: far_outage_conditional(
        lk.eff_far, pair, params),
    "far_avg": lambda lk, pair, params: far_outage_average(
        lk.eff_far, pair, params, _RANDOM),
    "near_exact": lambda lk, pair, params: near_outage_conditional_exact(
        lk.eff_near, pair, params),
    "near_approx": lambda lk, pair, params: near_outage_conditional_approx(
        lk.eff_near, pair, params),
    "near_avg": lambda lk, pair, params: near_outage_average(
        lk.eff_near, pair, params, _RANDOM),
    "single": lambda lk, pair, params: single_stream_outage_conditional(
        lk.eff_near, pair.R_k, pair.d_k, params),
}
_NONPOSITIVE = (1.0, 1.0, "nonpositive_threshold")
_INFEASIBLE = (1.0, 1.0, "infeasible_rate_split")


@lru_cache(maxsize=None)
def _shortcut_link(lambda_b, k_factor_db):
    params = NetworkParams(lambda_b=lambda_b)
    return params, build_scenario(params, PairConfig(), k_factor_db=k_factor_db,
                                  seed=20240717, policy=_RANDOM).link(1)


def _zero_gain(link):
    """Both users lose their own-stream gain, which zeroes every threshold."""
    def cut(eff):
        return replace(eff, mu=np.where(np.arange(eff.K) == eff.stream, 0.0,
                                        eff.mu))
    return replace(link, eff_near=cut(link.eff_near), eff_far=cut(link.eff_far))


# (case, operators, lambda_b, K-factor in dB, link edit, pair edit,
#  expected (probability, raw, flag)); no row may invert a transform
_SHORTCUTS = [
    ("zero_rate", tuple(_OPERATORS), 1e-5, 20.0, None,
     lambda p: p.with_rates(R_k=0.0, R_kt=0.0), (0.0, 0.0, None)),
    ("zero_gain", tuple(_OPERATORS), 1e-5, 20.0, _zero_gain, None,
     _NONPOSITIVE),
    ("infeasible_split",
     ("far_cond", "far_avg", "near_exact", "near_approx", "near_avg"), 1e-5,
     20.0, None, lambda p: p.with_rates(R_kt=3.0), _INFEASIBLE),
    ("concentrated", ("far_cond", "near_exact", "near_approx", "single"), 0.0,
     80.0, None, None, (0.0, 0.0, None)),
    # theta_sic > 0, but below the near message's own-stream power: the SIC
    # stage cannot succeed, so the exact operator must not invert in 2D
    ("impossible_sic", ("near_exact", "near_approx"), 1e-5, 20.0, None,
     lambda p: replace(p, d_k=400.0).with_rates(R_k=0.1, R_kt=2.1152657),
     _NONPOSITIVE),
]


@pytest.mark.parametrize("case,op,lambda_b,kdb,edit_link,edit_pair,want", [
    pytest.param(case, op, lam, kdb, el, ep, want, id=f"{case}-{op}")
    for case, ops, lam, kdb, el, ep, want in _SHORTCUTS for op in ops])
def test_shared_shortcuts(monkeypatch, case, op, lambda_b, kdb, edit_link,
                          edit_pair, want):
    def no_inversion(*args, **kwargs):
        raise AssertionError("shortcut case reached an inversion")

    monkeypatch.setattr(outage, "invert_1d", no_inversion)
    monkeypatch.setattr(outage, "invert_2d", no_inversion)
    params, link = _shortcut_link(lambda_b, kdb)
    link = edit_link(link) if edit_link else link
    pair = edit_pair(link.pair) if edit_pair else link.pair
    res = _OPERATORS[op](link, pair, params)
    assert (res.probability, res.raw, res.flag) == want


def _joint_projections(eff, pair):
    """The projections onto the error eigenbasis that the near-joint
    transform precomputes, with its eigenvalues and power splits."""
    mu, Psi = eff.mu, eff.Psi
    k = eff.stream
    mask = np.arange(eff.K) != k
    return (eff.delta, pair.beta_k2, pair.beta_kt2,
            mu[mask].conj() @ Psi[mask, :], mu[k].conjugate() * Psi[k, :],
            Psi[k, :].conj() * mu[k], Psi.conj().T @ mu)


def _broadcast_joint_transform(eff, pair):
    """The near-joint transform's form as one broadcast over a trailing
    length-K eigen axis; the per-component loop must match it to rounding."""
    delta, b2, bt2, p_proj, r_proj, q_proj, w_proj = _joint_projections(eff,
                                                                        pair)

    def F(s, t):
        u = s + t
        u_exp = u[..., None]
        denom = 1.0 + u_exp * delta
        left = u_exp * p_proj + (s * b2)[..., None] * r_proj
        right = delta * (s * bt2 + t)[..., None] * q_proj + w_proj
        quad = np.sum(left * right / denom, axis=-1)
        return np.exp(-quad) / (s * t * np.prod(denom, axis=-1))

    return F


def _joint_transform_reference(eff, pair):
    """The near-joint transform's loop as plain broadcasting expressions,
    one new grid per operation, with a complex exp; the in-place loop, whose
    exp runs in real arithmetic, must match it to rounding."""
    delta, b2, bt2, p_proj, r_proj, q_proj, w_proj = _joint_projections(eff,
                                                                        pair)

    def F(s, t):
        u = s + t
        s_b2 = s * b2
        s_bt2_t = s * bt2 + t
        quad, den = 0.0, s * t
        for i in range(eff.K):
            denom = 1.0 + u * delta[i]
            left = u * p_proj[i] + s_b2 * r_proj[i]
            right = delta[i] * s_bt2_t * q_proj[i] + w_proj[i]
            quad = quad + left * right / denom
            den = den * denom
        return np.exp(-quad) / den

    return F


@pytest.mark.parametrize("K, M, N, lambda_b, average, kdb, rates", [
    (2, 3, 2, 1e-5, False, 20.0, (0.25, 0.75)),
    (2, 3, 2, 1e-7, False, 20.0, (0.25, 0.75)),
    (2, 3, 2, 0.0, False, 20.0, (0.25, 0.75)),
    (3, 4, 3, 1e-5, False, 20.0, (0.25, 0.75)),
    (3, 4, 3, 0.0, False, 20.0, (0.25, 0.75)),
    (2, 3, 2, 1e-5, True, 20.0, (0.25, 0.75)),
    (2, 3, 2, 1e-5, False, 40.0, (0.25, 1.5)),
    # the interference-free fig6 point, which passes the 40-spread
    # shortcut on to the inversion
    (2, 3, 2, 0.0, False, 50.0, (1.74,))])
def test_joint_transform_matches_broadcast_form(monkeypatch, K, M, N, lambda_b,
                                                average, kdb, rates):
    # on the grids the 2D route builds, for every pair (so the own stream is
    # not always the first) and on the average's periods.  Without
    # interference the per-node loop runs and matches the plain loop to
    # rounding (their exps differ); with it the per-key form runs, and
    # matches the plain loop times the per-key factor to rounding.  Both
    # match the broadcast form to rounding.  The per-key form is told from
    # the per-node loop times the factor by its bits, which differ.
    params = NetworkParams(lambda_b=lambda_b, K=K, M=M, N=N)
    sc = build_scenario(params, PairConfig(R_k=1.0, R_kt=0.5), seed=20240717,
                        k_factor_db=kdb, policy=_RANDOM)
    joint, grids = outage._near_joint_transform, []

    def recording(eff, pair, phi):
        F, form = joint(eff, pair, phi), joint(eff, pair, None)
        loop, ref = (_joint_transform_reference(eff, pair),
                     _broadcast_joint_transform(eff, pair))

        def transform(s, t, lattice=None):
            got = F(s, t, lattice=lattice)
            if lattice is None:
                grids.append(("per_node", got, loop(s, t), ref(s, t)))
            else:
                _, make_u, view = lattice
                factor = view(phi(make_u()))
                path = ("per_node_factor"
                        if got.tobytes() == (form(s, t) * factor).tobytes()
                        else "lattice")
                grids.append((path, got, loop(s, t) * factor,
                              ref(s, t) * factor))
            return got

        return transform

    monkeypatch.setattr(outage, "_near_joint_transform", recording)
    for link in sc.links[:1] if average else sc.links:
        for r in rates:
            # the 2D route, at the default orders
            outage._NearJoint(link.eff_near, link.pair, params,
                              Inversion2DConfig(),
                              policy=_RANDOM if average else None)(2 * r, r)
    assert grids and all(got.shape == (97, 193) for _, got, _, _ in grids)
    paths = {path for path, _, _, _ in grids}
    assert paths == {"per_node" if lambda_b == 0.0 else "lattice"}
    for path, got, loop, want in grids:
        if path == "per_node":
            np.testing.assert_allclose(got, loop, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        else:
            np.testing.assert_allclose(got, loop, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _complex_interference_phi(omega, d, params):
    """`outage._interference_phi` as complex arithmetic, exp(-c s^(2/alpha)):
    the reference for the real-arithmetic kernel."""
    coeff = math.pi * params.lambda_b * omega * d * d
    return lambda s: np.exp(-coeff * s ** (2.0 / params.alpha))


@lru_cache(maxsize=None)
def _factor_points():
    """The points where the factor runs: 1D Euler contours at both orders
    the library and its checks use, the lattice keys u of four period
    ratios, and the per-node s + t of a wide lattice (T1 / T2 = 256,
    where no two nodes share a key)."""
    points = []

    def recording(s):
        points.append(s.copy())
        return np.ones_like(s)

    for cfg in (Inversion1DConfig(), Inversion1DConfig(m_euler=20, q=60)):
        for tau in np.geomspace(1e-3, 1e3, 7):
            invert_1d(recording, tau, cfg)
    cfg = Inversion2DConfig()
    for theta in ((1.0, 1.0), (8.0, 1.0), (1.0, 8.0), (64.0, 1.0),
                  (256.0, 1.0)):
        periods = cfg.resolve(*theta, lattice=True)
        points.append(laplace._lattice(periods, cfg)[1]())
    return tuple(points)


@pytest.mark.parametrize("alpha", [2.05, 3.5, 4.0, 6.0])
@pytest.mark.parametrize("lambda_b", [1e-7, 1e-5, 1e-4])
def test_interference_factor_matches_complex_form(alpha, lambda_b):
    # c s^p and its exp, both in real arithmetic, round the exponent within
    # a few ulp of |c s^p| (relative error at most 9.8 eps (1 + c |s|^p)
    # measured; c |s|^p reaches millions on the shortest 1D contour).  The
    # phase c |s|^p |sin(p arg s)| alone would leave out the near-real
    # points, whose real part rounds the same way.
    params = NetworkParams(lambda_b=lambda_b, alpha=alpha)
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                          seed=20240717).link(1)
    omega, p = link.eff_near.omega, 2.0 / alpha
    points = _factor_points()
    assert {s.size for s in points} >= {27, 81, 289, 1633, 12385, 18721}
    for d in (link.pair.d_k, link.pair.d_kt):
        coeff = math.pi * lambda_b * omega * d * d
        got_phi = outage._interference_phi(omega, d, params)
        want_phi = _complex_interference_phi(omega, d, params)
        for s in points:
            got, want = got_phi(s), want_phi(s)
            tol = 16 * np.finfo(float).eps * (1.0 + coeff * np.abs(s) ** p)
            assert got.shape == s.shape
            assert np.all(np.abs(got - want) <= tol * np.abs(want) + 1e-290)


def test_interference_free_network_has_no_factor():
    params = NetworkParams(lambda_b=0.0)
    assert outage._interference_phi(1.3, 50.0, params) is None


@pytest.mark.parametrize("K, M, N", [(2, 3, 2), (3, 4, 3)])
@pytest.mark.parametrize("kdb", [0.0, 20.0, 40.0])
@pytest.mark.parametrize("lambda_b", [1e-7, 1e-5, 1e-4])
def test_lattice_form_matches_per_node_form_times_factor(K, M, N, kdb,
                                                         lambda_b):
    # on the dense lattices of T1 / T2 = 2^-2 ... 2^5 (289 to 6,241 keys),
    # where the near user's transform takes its lattice form, for every
    # pair of the scenario
    params = NetworkParams(lambda_b=lambda_b, K=K, M=M, N=N)
    sc = build_scenario(params, PairConfig(), seed=20240717, k_factor_db=kdb)
    cfg = Inversion2DConfig()
    for link in sc.links:
        eff, pair = link.eff_near, link.pair
        _, phi = outage._user_law(eff, pair, params, False)
        F = outage._near_joint_transform(eff, pair, phi)
        form = outage._near_joint_transform(eff, pair, None)
        for ratio in range(-2, 6):
            periods = cfg.resolve(2.0 ** max(ratio, 0), 2.0 ** max(-ratio, 0),
                                  lattice=True)
            assert round(math.log2(periods[0] / periods[1])) == ratio
            got = laplace._transform_grid(F, periods, cfg, lattice=True)
            # the per-node loop times the per-key factor
            _, make_u, view = laplace._lattice(periods, cfg)
            want = form(*laplace._contour(periods, cfg)) * view(phi(make_u()))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_fresh_near_exact_evaluation_peaks_below_five_grids():
    # one warm 2D evaluation on a fresh grid at the fig7 link: the transform
    # takes its lattice form, which builds the grid in place from per-key
    # values, and the trapezoid sum forms its row sums in place, so the
    # peak stays below five grid-sized complex arrays (97 x 193 x 16 B
    # each at the default orders; 4.03 measured)
    params = NetworkParams()
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                          seed=20240717).link(1)
    cfg = Inversion2DConfig()
    near_outage_conditional_exact(link.eff_near, link.pair, params, cfg)
    tracemalloc.start()
    try:
        near_outage_conditional_exact(link.eff_near, link.pair, params, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 97 * 193 * 16


@pytest.mark.parametrize("theta1, keys", [(64.0, 12385), (256.0, 18721)])
def test_per_node_grid_peaks_with_its_transform(theta1, keys):
    # at T1 / T2 = 2^6 (12,385 keys) the per-key form does not pay, and at
    # 2^8 each node has a key of its own: the per-node loop builds the
    # grid, and the lattice and the factor are made after the loop's
    # temporaries are gone, so the grid peaks within a quarter grid of the
    # loop alone (the other order: 1 grid above it)
    params = NetworkParams()
    link = build_scenario(params, PairConfig()).link(1)
    _, phi = outage._user_law(link.eff_near, link.pair, params, False)
    F = outage._near_joint_transform(link.eff_near, link.pair, phi)
    form = outage._near_joint_transform(link.eff_near, link.pair, None)
    cfg = Inversion2DConfig()
    periods = cfg.resolve(theta1, 1.0, lattice=True)
    assert laplace._lattice(periods, cfg)[0] == keys
    s, t = laplace._contour(periods, cfg)
    tracemalloc.start()
    try:
        form(s, t)
        _, alone = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        laplace._transform_grid(F, periods, cfg, lattice=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= alone + 0.25 * 97 * 193 * 16


def test_near_transform_with_a_factor_needs_the_lattice():
    # without the lattice it could only leave its factor out
    params = NetworkParams()
    link = build_scenario(params, PairConfig()).link(1)
    _, phi = outage._user_law(link.eff_near, link.pair, params, False)
    F = outage._near_joint_transform(link.eff_near, link.pair, phi)
    periods = Inversion2DConfig().resolve(8.0, 1.0, lattice=True)
    with pytest.raises(ValueError, match="lattice"):
        F(*laplace._contour(periods, Inversion2DConfig()))


def _forwarding(factory):
    """`factory` whose transforms come wrapped in a plain function that
    forwards every argument, as a tracer wraps them."""
    def make(*args):
        F = factory(*args)
        return lambda *a, **k: F(*a, **k)

    return make


@pytest.mark.parametrize("lambda_b, policy", [(1e-7, None), (1e-5, None),
                                              (1e-5, _RANDOM)])
def test_forwarded_near_transform_keeps_its_bits(monkeypatch, lambda_b,
                                                 policy):
    # conditional links and an averaged transform on the 2D route: behind a
    # forwarding wrapper the transform still gets the s + t lattice, so the
    # values keep their bits
    params = NetworkParams(lambda_b=lambda_b)
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                          seed=20240717).link(1)

    def evaluate():
        joint = outage._NearJoint(link.eff_near, link.pair, params,
                                  Inversion2DConfig(), policy=policy)
        return [joint(2 * r, r).raw.hex() for r in (0.25, 0.5, 1.0)]

    plain = evaluate()
    monkeypatch.setattr(outage, "_near_joint_transform",
                        _forwarding(outage._near_joint_transform))
    assert evaluate() == plain


@pytest.mark.parametrize("theta1", [8.0, 64.0, 256.0])
def test_forwarded_near_transform_keeps_its_lattice_bits(theta1):
    # T1 / T2 = 8 (1,633 keys: the per-key form), 64 (12,385 keys: the
    # per-node loop times the per-key factor) and 256 (one key per node)
    params = NetworkParams()
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                          seed=20240717).link(1)
    _, phi = outage._user_law(link.eff_near, link.pair, params, False)
    F = outage._near_joint_transform(link.eff_near, link.pair, phi)
    cfg = Inversion2DConfig()
    periods = cfg.resolve(theta1, 1.0, lattice=True)
    runs = []
    for transform in (F, _forwarding(lambda: F)()):
        grid = laplace._transform_grid(transform, periods, cfg, lattice=True)
        value = invert_2d(transform, theta1, 1.0, lattice=True)
        runs.append((value.hex(), grid.tobytes()))
    assert runs[0] == runs[1]
