import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx
from scipy.stats import kstest

from distance_laws import (ordered_distance_pdf, serving_distance_cdf,
                           serving_distance_pdf)
from nomacell import GroupingPolicy, NetworkParams, policy_laplace_factor
from nomacell.geometry import (_NODES, _STEP, _distance_mixture, _exp_sinh_nodes,
                               _interference_coefficient, _mixture_integral,
                               _sample_serving_distances)
from nomacell.montecarlo import _MAX_MEAN_POINTS, _interference

# 1% two-sided Kolmogorov-Smirnov critical value factor
KS_1PC = 1.628


def _mixture_arguments(alpha, n, rng, s_decades=(-3.0, 4.0),
                       ratio_decades=(-12.0, 6.0), max_arg=0.499 * math.pi):
    """(a, b) of the mixture integral as `policy_laplace_factor` forms
    them: b = m + omega s^(2/alpha) and a = r |b|^(alpha/2) e^(i arg s),
    with the noise-to-distance ratio r log-uniform over `ratio_decades`."""
    s = (10.0 ** rng.uniform(*s_decades, n)
         * np.exp(1j * rng.uniform(-max_arg, max_arg, n)))
    b = rng.integers(1, 7, n) + 10.0 ** rng.uniform(-2, 1, n) * s ** (2 / alpha)
    a = (10.0 ** rng.uniform(*ratio_decades, n) * np.abs(b) ** (alpha / 2)
         * np.exp(1j * np.angle(s)))
    return a, b


def _complex_exp_integral(a, b, p, nodes=_NODES):
    """`_mixture_integral` as one complex `exp` of the rotated exponent,
    summed by a matrix product: the reference for the real-arithmetic sum."""
    x, w = nodes
    phi = (np.angle(a) + np.angle(b)) / (1.0 + p)
    sigma = np.maximum(np.abs(b), np.abs(a) ** (1.0 / p))
    a_rot = (a * np.exp(-1j * p * phi) / sigma ** p)[..., None]
    b_rot = (b * np.exp(-1j * phi) / sigma)[..., None]
    vals = np.exp(-a_rot * x ** p - b_rot * x) @ w
    return np.exp(-1j * phi) / sigma * vals


class TestServingDistance:
    def test_normalization(self, table_params):
        total, err = quad(lambda x: serving_distance_pdf(x, table_params), 0, np.inf)
        assert abs(total - 1.0) <= 1e-9

    def test_mode_location(self):
        params = NetworkParams(lambda_b=1e-5)
        mode = 1.0 / math.sqrt(2 * params.c * params.lambda_b * math.pi)
        assert mode == pytest.approx(112.84, abs=0.01)
        x = np.linspace(mode - 5, mode + 5, 201)
        pdf = serving_distance_pdf(x, params)
        assert abs(x[np.argmax(pdf)] - mode) < 0.1

    def test_cdf_monotone_and_pdf_nonnegative(self, table_params):
        x = np.linspace(0, 1500, 500)
        assert np.all(serving_distance_pdf(x, table_params) >= 0)
        assert np.all(np.diff(serving_distance_cdf(x, table_params)) >= 0)

    def test_sampler_ks(self, table_params, rng):
        d = _sample_serving_distances(table_params, rng, size=10_000)
        stat = kstest(d, lambda x: serving_distance_cdf(x, table_params)).statistic
        assert stat < KS_1PC / math.sqrt(len(d))

    def test_typical_cell_geometry_oracle(self, table_params):
        # the cell-geometry constant c = 5/4 approximates the distance from
        # a user placed uniformly in the typical Voronoi cell to its BS;
        # rebuild that law from first principles (BS field plus a BS at the
        # origin, rejection-sample a user inside the origin cell) and check
        # the stated density at the 1% K-S level
        lam = table_params.lambda_b
        rng = np.random.default_rng(2024)
        W, R_cand, n_target = 2000.0, 800.0, 10_000
        samples = []
        while len(samples) < n_target:
            for nb in rng.poisson(lam * math.pi * W * W, size=2000):
                r = W * np.sqrt(rng.random(nb))
                ph = rng.uniform(0, 2 * math.pi, nb)
                bx, by = r * np.cos(ph), r * np.sin(ph)
                for _ in range(200):
                    rr = R_cand * math.sqrt(rng.random())
                    pp = rng.uniform(0, 2 * math.pi)
                    ux, uy = rr * math.cos(pp), rr * math.sin(pp)
                    d0 = math.hypot(ux, uy)
                    if nb == 0 or d0 * d0 <= np.min((bx - ux) ** 2
                                                    + (by - uy) ** 2):
                        samples.append(d0)
                        break
                if len(samples) >= n_target:
                    break
        d = np.asarray(samples)
        stat = kstest(d, lambda x: serving_distance_cdf(x, table_params)).statistic
        assert stat < KS_1PC / math.sqrt(len(d))
        # the uncorrected nearest-neighbor law (c = 1) must be rejected
        plain = kstest(d, lambda x: 1 - np.exp(
            -lam * math.pi * np.asarray(x) ** 2)).statistic
        assert plain > KS_1PC / math.sqrt(len(d))


class TestOrderedDistance:
    def test_single_user_reduces_to_serving(self, table_params):
        x = np.linspace(1, 1000, 50)
        assert np.allclose(ordered_distance_pdf(x, 1, 1, table_params),
                           serving_distance_pdf(x, table_params))

    def test_max_of_four_form_and_normalization(self, table_params):
        x = np.linspace(1, 800, 50)
        F = serving_distance_cdf(x, table_params)
        f = serving_distance_pdf(x, table_params)
        assert np.allclose(ordered_distance_pdf(x, 4, 4, table_params),
                           4 * F ** 3 * f)
        total, _ = quad(lambda y: ordered_distance_pdf(y, 4, 4, table_params),
                        0, np.inf)
        assert abs(total - 1.0) <= 1e-9

    def test_rank2_of_4_ks(self, table_params, rng):
        draws = _sample_serving_distances(table_params, rng, size=(10_000, 4))
        second = np.sort(draws, axis=1)[:, 1]

        def cdf(x):
            return np.array([quad(lambda y: ordered_distance_pdf(
                y, 2, 4, table_params), 0, xi)[0] for xi in np.atleast_1d(x)])

        # evaluate the K-S statistic on a compressed grid; the integral CDF
        # is too slow for a full ecdf comparison
        grid = np.quantile(second, np.linspace(0.01, 0.99, 99))
        emp = np.searchsorted(np.sort(second), grid, side="right") / len(second)
        stat = np.max(np.abs(emp - cdf(grid)))
        assert stat < KS_1PC / math.sqrt(len(second))

    def test_mixture_identity(self, table_params):
        # averaging the order statistics recovers the parent density
        x = np.linspace(1, 1200, 60)
        K = 2
        mix = sum(ordered_distance_pdf(x, r, 2 * K, table_params)
                  for r in range(1, 2 * K + 1)) / (2 * K)
        assert np.allclose(mix, serving_distance_pdf(x, table_params), rtol=1e-12)

    def test_rank_bounds(self, table_params):
        with pytest.raises(ValueError):
            ordered_distance_pdf(10.0, 0, 4, table_params)
        with pytest.raises(ValueError):
            ordered_distance_pdf(10.0, 5, 4, table_params)


class TestInterferenceCoefficient:
    def test_sqrt_pi_case(self):
        params = NetworkParams(alpha=4.0, rho_I=0.1, P=0.1)
        u = np.array([1.0, 0.0])
        assert _interference_coefficient(u, params) == pytest.approx(math.sqrt(math.pi))

    def test_nulled_filter(self, table_params):
        u = np.array([1.0, -1.0]) / math.sqrt(2)
        assert _interference_coefficient(u, table_params) == pytest.approx(0.0)

    def test_against_independent_gamma(self):
        params = NetworkParams(alpha=3.5, rho_I=10 ** 1.5 / 1000, P=0.1)
        u = np.array([math.sqrt(0.7), 0.0])
        want = math.gamma(1 - 2 / 3.5) * (
            params.rho_I / params.P * 0.7) ** (2 / 3.5)
        assert _interference_coefficient(u, params) == pytest.approx(want, rel=1e-12)

    def test_homogeneity(self, table_params):
        u = np.array([0.6, 0.8j])
        base = _interference_coefficient(u, table_params)
        params2 = NetworkParams(rho_I=table_params.rho_I * 3.0)
        scaled = _interference_coefficient(u, params2)
        assert scaled == pytest.approx(base * 3.0 ** (2 / table_params.alpha))

    def test_rejects_alpha_leq_2(self):
        with pytest.raises(ValueError):
            NetworkParams(alpha=1.5)


class TestPPPSampler:
    """The simulator's interferer field, `montecarlo._interference`."""

    def test_zero_intensity(self, rng):
        params = NetworkParams(lambda_b=0.0)
        near, far = _interference(rng, params, 50, 50.0, 125.0, 5000.0, "none")
        assert not near.any() and not far.any()

    def test_mean_count(self, table_params, rng):
        # Poisson BS count in the window, whose radius is capped so a trial
        # expects at most _MAX_MEAN_POINTS interferers
        drawn = []

        class Recording:
            def poisson(self, lam, size):
                drawn.append(rng.poisson(lam, size))
                return drawn[-1]

            def __getattr__(self, name):
                return getattr(rng, name)

        for params, W, n, mean in (
                (table_params, 1000.0, 10_000,
                 table_params.lambda_b * math.pi * 1000.0 ** 2),
                (NetworkParams(lambda_b=1e-3), 5000.0, 200, _MAX_MEAN_POINTS)):
            _interference(Recording(), params, n, 50.0, 125.0, W, "none")
            assert abs(np.mean(drawn[-1]) - mean) <= 3.5 * math.sqrt(mean / n)

    def test_campbell_formula(self, table_params, rng):
        # empirical E[sum d^-alpha] over the BSs outside each user's serving
        # distance d vs the intensity-measure integral over the window
        # minus that exclusion disk (user at distance d from the centre)
        W, n, alpha = 1500.0, 10_000, table_params.alpha
        sums = _interference(rng, table_params, n, 50.0, 125.0, W, "serving")
        for d, s in zip((50.0, 125.0), sums):
            def arc(r):  # angle of the radius-r circle around the user in the window
                c = (W * W - d * d - r * r) / (2 * d * r)
                return 2 * math.pi - 2 * math.acos(min(max(c, -1.0), 1.0))

            want, _ = quad(lambda r: table_params.lambda_b * arc(r)
                           * r ** (1.0 - alpha), d, W + d, points=[W - d],
                           limit=200)
            stderr = np.std(s) / math.sqrt(n)
            assert abs(np.mean(s) - want) <= 3.5 * stderr


class TestPolicyFactor:
    def test_normalization_at_zero(self, table_params):
        # phi(0) = 1 for every policy: expectation of unity
        for mixture in (_distance_mixture(1, 2), _distance_mixture(2, 2),
                        _distance_mixture(1, 4), _distance_mixture(4, 4)):
            val = policy_laplace_factor(0.0, mixture, omega=0.8,
                                        sigma_u2=0.0, params=table_params)
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_normalization_at_zero_with_noise(self, table_params):
        # s = 0 zeroes the noise coefficient too, alone or inside an array
        mixture = _distance_mixture(2, 4)
        vals = policy_laplace_factor(np.array([0.0, 1.0 + 2.0j]), mixture,
                                     0.8, table_params.sigma2, table_params)
        assert vals[0] == 1.0
        assert policy_laplace_factor(0.0, mixture, 0.8, table_params.sigma2,
                                     table_params) == 1.0

    def test_array_matches_scalar_calls(self, table_params, rng):
        mixture = _distance_mixture(2, 4)
        s = (10.0 ** rng.uniform(-2, 3, (3, 5))
             * np.exp(1j * rng.uniform(-1.5, 1.5, (3, 5))))
        for sigma_u2 in (0.0, table_params.sigma2 * 0.7):
            got = policy_laplace_factor(s, mixture, 0.5, sigma_u2, table_params)
            assert got.shape == s.shape
            want = [policy_laplace_factor(si, mixture, 0.5, sigma_u2,
                                          table_params) for si in s.ravel()]
            assert np.allclose(got.ravel(), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("alpha", (2.05, 3.5, 6.0))
    def test_rule_converged_at_its_step(self, alpha):
        # the exp-sinh rule agrees with itself at a quarter of its step over
        # contour angles up to 0.499 pi and noise ratios 1e-12 .. 1e6; a
        # rotation onto the dominant term alone misses this by 1e-6 .. 1e-3
        a, b = _mixture_arguments(alpha, 2000, np.random.default_rng(41))
        fine = _mixture_integral(a, b, alpha / 2, _exp_sinh_nodes(_STEP / 4))
        got = _mixture_integral(a, b, alpha / 2)
        assert np.max(np.abs(got - fine) / np.abs(fine)) < 1e-13

    @pytest.mark.parametrize("alpha", (2.05, 3.5, 4.0, 6.0))
    def test_real_sum_matches_complex_exp(self, alpha):
        # e^u (cos v, sin v) from real exp and the tangent half-angle
        # agrees with one complex exp per node, node for node
        a, b = _mixture_arguments(alpha, 2000, np.random.default_rng(53))
        want = _complex_exp_integral(a, b, alpha / 2)
        got = _mixture_integral(a, b, alpha / 2)
        assert np.max(np.abs(got - want) / np.abs(want)) < 2e-15

    @pytest.mark.parametrize("alpha", (2.05, 3.5, 4.0, 6.0))
    def test_trimmed_nodes_match_the_full_range(self, alpha):
        # the nodes outside x in [1e-17, 60] add nothing visible: the rule
        # on t = -4.5 .. 2.19 (x from 2e-31 to 1e3) at the same step
        full = _exp_sinh_nodes(_STEP, 1e-31, 1e3)
        a, b = _mixture_arguments(alpha, 2000, np.random.default_rng(59))
        want = _mixture_integral(a, b, alpha / 2, full)
        got = _mixture_integral(a, b, alpha / 2)
        assert np.max(np.abs(got - want) / np.abs(want)) < 2e-15
        assert len(full[0]) == 214 and len(_NODES[0]) == 179
        assert np.isin(_NODES[0], full[0]).all()

    def test_rule_matches_gaussian_closed_form(self):
        # alpha = 4: int exp(-a z^2 - b z) dz = sqrt(pi / a) erfcx(w) / 2
        # with w = b / (2 sqrt(a)), over the whole argument table
        a, b = _mixture_arguments(4.0, 2000, np.random.default_rng(43))
        want = 0.5 * np.sqrt(math.pi / a) * erfcx(b / (2.0 * np.sqrt(a)))
        got = _mixture_integral(a, b, 2.0)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    @pytest.mark.parametrize("alpha", (2.05, 3.5, 6.0))
    def test_rule_matches_real_axis_quadrature(self, alpha):
        # oracle without the rotation, at moderate arguments where the
        # integrand oscillates slowly on the real axis
        a, b = _mixture_arguments(alpha, 12, np.random.default_rng(47),
                                  s_decades=(-1.0, 1.5), ratio_decades=(-3, 1),
                                  max_arg=0.45 * math.pi)
        got = _mixture_integral(a, b, alpha / 2)
        for ai, bi, gi in zip(a, b, got):
            want, _ = quad(lambda z: np.exp(-ai * z ** (alpha / 2) - bi * z),
                           0.0, np.inf, complex_func=True, epsabs=1e-15,
                           epsrel=1e-13, limit=500)
            assert abs(gi - want) < 1e-12

    def test_mixture_weights_sum_to_one(self):
        for rank, total in ((1, 2), (2, 2), (1, 4), (2, 4), (3, 4), (4, 4)):
            terms = _distance_mixture(rank, total)
            assert sum(c / m for c, m in terms) == pytest.approx(1.0)

    def test_matches_direct_distance_quadrature(self, table_params):
        # oracle: integrate the distance law directly against the kernel
        omega, sigma_u2 = 0.5, table_params.sigma2 * 0.7
        mixture = _distance_mixture(2, 4)
        for s in (0.5 + 0.0j, 4.0 + 3.0j, 2.0 + 40.0j):
            def integrand(d):
                return (np.exp(-(sigma_u2 / table_params.P) * s
                               * d ** table_params.alpha
                               - math.pi * table_params.lambda_b * omega * d * d
                               * s ** (2 / table_params.alpha))
                        * ordered_distance_pdf(d, 2, 4, table_params))
            want, _ = quad(integrand, 0, 3000, complex_func=True, limit=300)
            got = policy_laplace_factor(s, mixture, omega, sigma_u2, table_params)
            assert abs(got - want) < 1e-9

    def test_policy_ranks(self):
        pol = GroupingPolicy("distance")
        assert pol.ranks(1, 2) == (1, 4)
        assert pol.ranks(2, 2) == (2, 3)
        assert GroupingPolicy("random").ranks(1, 2) == (1, 2)
        with pytest.raises(ValueError):
            GroupingPolicy("round-robin")
