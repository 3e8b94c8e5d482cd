import math
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import comb, erfc

from nomacell import (Inversion1DConfig, Inversion2DConfig, NetworkParams,
                      PairConfig, baseline_goodput, build_scenario,
                      epsilon_accelerate, invert_1d, invert_2d,
                      maximize_goodput, near_outage_conditional_exact)
from nomacell import laplace, outage


def _wynn_columns(sums):
    """Columns of the scalar Wynn table of one sequence, up to its first
    singular difference (all n of them when none occurs)."""
    n = len(sums)
    e_prev = np.zeros(n + 1, dtype=complex)
    e_curr = sums.astype(complex)
    yield e_curr
    for _ in range(1, n):
        diff = e_curr[1:] - e_curr[:-1]
        if np.any(np.abs(diff) < 1e-300):
            return
        e_prev, e_curr = e_curr, e_prev[1:len(e_curr)] + 1.0 / diff
        yield e_curr


def _epsilon_reference(partial_sums):
    """Row-by-row Wynn recursion: one scalar table per leading index, each
    stopping at its own first singular difference and keeping its last
    even column.  The batched kernel must reproduce it bit for bit."""
    sums = np.asarray(partial_sums)
    if sums.ndim > 1:
        out = np.empty(sums.shape[:-1], dtype=complex)
        for idx in np.ndindex(out.shape):
            out[idx] = _epsilon_reference(sums[idx])
        return out if np.iscomplexobj(sums) else out.real
    best = list(_wynn_columns(sums))[::2][-1][-1]
    return best if np.iscomplexobj(sums) else float(best.real)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tables(rng, kind="real", n=17):
    """Partial-sum rows that freeze at step 1, step 2, step 3, or never; the
    complex rows scale the real ones exactly, keeping where they freeze."""
    terms = rng.integers(1, 1000, size=(5, n)).astype(float)
    terms[0, 4] = 0.0                        # repeated partial sum: step 1
    terms[1, 6] = terms[1, 5]                # equal first differences: step 2
    terms[2] = 0.5 ** np.arange(1, n + 1)    # e_2 exactly constant: step 3
    terms[3] = (-1.0) ** np.arange(n) / np.arange(1, n + 1)
    terms[4] = rng.normal(size=n)
    sums = np.cumsum(terms, axis=1)
    return sums if kind == "real" else (1 + 0.5j) * sums


class TestInvert1D:
    def test_unit_step(self):
        assert abs(invert_1d(lambda s: 1 / s, 1.0) - 1.0) <= 1e-7

    def test_exponential_relaxation(self):
        got = invert_1d(lambda s: 1 / (s * (s + 1)), 2.0)
        assert abs(got - (1 - math.exp(-2))) <= 1e-7

    def test_fractional_power_pair(self):
        # inverse of e^{-sqrt s}/s is erfc(1 / (2 sqrt t)); exercises the
        # principal fractional branch used by the interference factor
        got1 = invert_1d(lambda s: np.exp(-np.sqrt(s)) / s, 1.0)
        assert abs(got1 - erfc(0.5)) <= 1e-6
        got2 = invert_1d(lambda s: np.exp(-np.sqrt(s)) / s, 2.0)
        assert abs(got2 - erfc(1 / (2 * math.sqrt(2)))) <= 1e-6

    def test_linearity(self):
        F = lambda s: 1 / (s * (s + 1))
        G = lambda s: 1 / s
        a, b = 0.7, -2.5
        lhs = invert_1d(lambda s: a * F(s) + b * G(s), 1.5)
        rhs = a * invert_1d(F, 1.5) + b * invert_1d(G, 1.5)
        assert abs(lhs - rhs) <= 1e-10

    def test_probability_range_for_cdf_transform(self):
        # CDF-type transform of an exponential mixture stays within [0, 1]
        # up to the discretization budget across the abscissa range
        F = lambda s: 1 / (s * (1 + 0.3 * s) * (1 + 0.05 * s))
        for tau in np.linspace(0.05, 10.0, 40):
            v = invert_1d(F, tau)
            assert -1e-6 <= v <= 1 + 1e-6

    def test_discretization_bound(self):
        cfg = Inversion1DConfig()
        assert cfg.discretization_error <= 1e-10
        assert Inversion1DConfig(A=3.0).discretization_error > 1e-2

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            invert_1d(lambda s: 1 / s, 0.0)

    def test_euler_weights_are_shared_and_read_only(self):
        weights = laplace._euler_weights(11)
        assert weights is laplace._euler_weights(11)
        with pytest.raises(ValueError):
            weights[0] = 1.0
        assert _same_bits(weights, comb(11, np.arange(12)) / 2.0 ** 11)

    @pytest.mark.parametrize("M", (11, 20, 40, 80))
    def test_euler_weights_are_exact_fractions(self, M):
        # each weight is C(M, m) / 2^M correctly rounded, and they sum to 1;
        # a float binomial is one ulp off for some m at M >= 31
        weights = laplace._euler_weights(M)
        for m, w in enumerate(weights):
            exact = Fraction(math.comb(M, m), 2 ** M)
            assert abs(Fraction(float(w)) - exact) <= Fraction(math.ulp(w)) / 2
        assert math.fsum(weights) == 1.0

    def test_flags_nonfinite_transform(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(FloatingPointError):
                invert_1d(lambda s: 1 / (s - s), 1.0)


def _phase_weighted_sum_grid(F, theta1, theta2, periods, cfg):
    """`laplace._sum_grid` as a sum over a phase-weighted copy of the grid:
    W = F E1 E2, the rows' paired +-l2 terms and their running sums formed
    in W, and the l2 = 0 column added after the row extrapolation.  The
    reference for the matrix-vector form."""
    T1, T2, c1, c2 = periods
    L, P = cfg.L, cfg.p_eps
    n_max = L + 2 * P
    l1 = np.arange(0, n_max + 1)
    l2 = np.arange(-n_max, n_max + 1)
    W = F * np.exp(1j * math.pi * l1 * theta1 / T1)[:, None]
    W *= np.exp(1j * math.pi * l2 * theta2 / T2)
    zero = n_max
    inner = W[:, zero + 1:]
    np.add(inner[1:], W[1:, zero - 1::-1], out=inner[1:])
    np.cumsum(inner, axis=1, out=inner)
    rows = epsilon_accelerate(inner[:, L - 1:L + 2 * P])
    rows[0] += 0.5 * W[0, zero]
    rows[1:] += W[1:, zero]
    total = epsilon_accelerate(np.cumsum(rows)[L - 1:L + 2 * P])
    return float(math.exp(c1 * theta1 + c2 * theta2) / (4.0 * T1 * T2)
                 * 2.0 * total.real)


def _near_user_sums(monkeypatch, lambda_b, preset):
    """The network parameters and, for every trapezoid sum the near user's
    exact outage makes by the 2D route on a preset's links, (grid, theta1,
    theta2, periods, link): fig1's link over its six rates, fig7's four
    channel qualities at three rates each."""
    params = NetworkParams(lambda_b=lambda_b)
    if preset == "fig1":
        cases = [(20.0, r) for r in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)]
    else:
        cases = [(kdb, r) for kdb in (10.0, 20.0, 30.0, 40.0)
                 for r in (0.25, 0.5, 1.0)]
    sums, sum_grid = [], laplace._sum_grid

    def recording(F, theta1, theta2, periods, cfg):
        sums.append((F, theta1, theta2, periods, link))
        return sum_grid(F, theta1, theta2, periods, cfg)

    monkeypatch.setattr(laplace, "_sum_grid", recording)
    for kdb, r in cases:
        link = build_scenario(params, PairConfig(R_k=2 * r, R_kt=r),
                              kappa=0.9, k_factor_db=kdb,
                              seed=20240717).link(1)
        near_outage_conditional_exact(link.eff_near, link.pair, params,
                                      Inversion2DConfig())
    monkeypatch.undo()
    return params, sums


class TestInvert2D:
    def test_product_of_steps(self):
        for point in ((1.0, 1.0), (0.4, 2.6), (3.0, 3.0)):
            got = invert_2d(lambda s, t: 1 / (s * t), *point)
            assert abs(got - 1.0) <= 1e-6

    def test_separable_exponentials(self):
        got = invert_2d(lambda s, t: 1 / ((s + 1) * (t + 2)), 1.0, 0.5)
        assert abs(got - math.exp(-2.0)) <= 1e-5

    def test_coupled_rational(self):
        # partial fractions give 1 - e^{-min(t1, t2)}; cross-checked against
        # the brute-force contour quadrature oracle below
        got = invert_2d(lambda s, t: 1 / (s * t * (1 + s + t)), 1.0, 2.0)
        assert abs(got - (1 - math.exp(-1.0))) <= 1e-5

    def test_coupled_rational_vs_quadrature_oracle(self):
        # independent oracle: iterated Bromwich quadrature of the inner
        # transform, then of the resulting single-variable transform
        from scipy.integrate import quad

        t1, t2 = 1.0, 2.0

        def inner(t):
            # L^-1_s[1/(s(1+s+t))](t1) via partial fractions in s
            return (1 - np.exp(-(1 + t) * t1)) / (1 + t)

        def outer_integrand(y, c):
            t = c + 1j * y
            return (inner(t) / t * np.exp(t * t2)).real

        c = 0.4
        val, _ = quad(outer_integrand, 0, 400, args=(c,), limit=2000)
        oracle = math.exp(0.0) * val / math.pi  # symmetric contour halves
        got = invert_2d(lambda s, t: 1 / (s * t * (1 + s + t)), t1, t2)
        assert abs(got - oracle) <= 1e-5

    def test_separable_matches_1d_product(self):
        F1 = lambda s: 1 / (s + 0.5)
        F2 = lambda t: 1 / (t + 2.0)
        got = invert_2d(lambda s, t: F1(s) * F2(t), 0.8, 0.6)
        want = invert_1d(F1, 0.8) * invert_1d(F2, 0.6)
        assert abs(got - want) <= 1e-5

    @pytest.mark.parametrize("lambda_b", [1e-5, 1e-7, 0.0])
    def test_near_exact_matches_row_by_row_reference(self, lambda_b,
                                                     table_pair, monkeypatch):
        params = replace(NetworkParams(), lambda_b=lambda_b)
        links = [build_scenario(params, table_pair.with_rates(R_k=2 * r, R_kt=r),
                                kappa=kappa, k_factor_db=kdb,
                                seed=20240717).link(1)
                 for kdb, kappa in ((10.0, 0.5), (20.0, 0.9), (40.0, 0.9))
                 for r in (0.5, 1.5)]

        def near_all():
            return [near_outage_conditional_exact(lk.eff_near, lk.pair, params,
                                                  Inversion2DConfig())
                    for lk in links]

        batched = near_all()
        monkeypatch.setattr(laplace, "epsilon_accelerate", _epsilon_reference)
        rowwise = near_all()
        for got, want in zip(batched, rowwise):
            assert _same_bits(got.raw, want.raw)

    @pytest.mark.parametrize("scheme", ["aligned", "plain"])
    def test_goodput_designs_match_row_by_row_reference(self, scheme,
                                                        monkeypatch):
        # the fig7 links at 20 dB: every inversion the optimizer makes,
        # whichever way it is reached, keeps its bits
        params = NetworkParams()
        link = build_scenario(params, PairConfig(), kappa=0.9,
                              k_factor_db=20.0, seed=20240717,
                              scheme=scheme).link(1)

        def designs():
            return [tuple(float(x).hex() for x in astuple(sol))
                    for sol in (maximize_goodput(link, 1e-2, params),
                                baseline_goodput("noma", link, 1e-2, params))]

        batched = designs()
        monkeypatch.setattr(laplace, "epsilon_accelerate", _epsilon_reference)
        assert designs() == batched

    def test_rejects_nonpositive_abscissae(self):
        with pytest.raises(ValueError):
            invert_2d(lambda s, t: 1 / (s * t), -1.0, 1.0)


class TestSumGrid:
    # The matrix-vector form sums each row in another order than the
    # running sums over the phase-weighted copy, and the epsilon tables
    # amplify that rounding: over these sums, on the stored grids and on
    # per-node grids of the same periods, the raw value moved by at most
    # 1.9e-11 (fig7 at lambda_b = 1e-7; 1.2e-12 on fig1).  The bound
    # leaves room for a BLAS that orders the products otherwise.
    TOL = 5e-11

    @pytest.mark.parametrize("lambda_b", [0.0, 1e-7, 1e-5])
    @pytest.mark.parametrize("preset", ["fig1", "fig7"])
    def test_matches_the_phase_weighted_sum(self, monkeypatch, preset,
                                            lambda_b):
        params, sums = _near_user_sums(monkeypatch, lambda_b, preset)
        assert sums
        cfg, per_node_grids = Inversion2DConfig(), {}
        for F, theta1, theta2, periods, link in sums:
            grids = [F]
            if lambda_b > 0:
                # the same periods built node by node, without the
                # transform's per-key form
                key = (id(link), periods)
                if key not in per_node_grids:
                    _, phi = outage._user_law(link.eff_near, link.pair,
                                              params, False)
                    form = outage._near_joint_transform(link.eff_near,
                                                        link.pair, None)
                    _, make_u, view = laplace._lattice(periods, cfg)
                    per_node_grids[key] = (
                        form(*laplace._contour(periods, cfg))
                        * view(phi(make_u())))
                grids.append(per_node_grids[key])
            for grid in grids:
                got = laplace._sum_grid(grid, theta1, theta2, periods, cfg)
                want = _phase_weighted_sum_grid(grid, theta1, theta2,
                                                periods, cfg)
                assert abs(got - want) <= self.TOL, (theta1, theta2, periods)

    def test_summing_a_stored_grid_allocates_less_than_a_grid(self):
        # the grid is only read, and the Wynn pass keeps two table buffers
        # and the differences' magnitudes (252 KiB measured)
        params = NetworkParams()
        link = build_scenario(params, PairConfig(), kappa=0.9,
                              k_factor_db=20.0, seed=20240717).link(1)
        _, phi = outage._user_law(link.eff_near, link.pair, params, False)
        cfg = Inversion2DConfig()
        periods = cfg.resolve(1.0, 1.0, lattice=True)
        grid = laplace._transform_grid(
            outage._near_joint_transform(link.eff_near, link.pair, phi),
            periods, cfg, lattice=True)
        theta1, theta2 = 0.7 * periods[0], 0.7 * periods[1]
        laplace._sum_grid(grid, theta1, theta2, periods, cfg)
        tracemalloc.start()
        try:
            laplace._sum_grid(grid, theta1, theta2, periods, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes == 97 * 193 * 16


def _coupled_form(s, t):
    """A transform coupling s and t, without a factor of s + t."""
    u = 1.0 + s + t
    return np.exp(-(0.3 * s + 0.2 * t) / u) / (s * t * u)


def _factor(u):
    """A factor of u = s + t shaped like the interference factor."""
    return np.exp(-0.4 * u ** 0.5)


@pytest.fixture(scope="module")
def lattice_link():
    """The fig7 link at 20 dB and default parameters, its near user's
    interference factor, joint transform and the transform's form without
    the factor."""
    params = NetworkParams()
    link = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                          seed=20240717).link(1)
    _, phi = outage._user_law(link.eff_near, link.pair, params, False)
    return (link, phi,
            outage._near_joint_transform(link.eff_near, link.pair, phi),
            outage._near_joint_transform(link.eff_near, link.pair, None))


class TestFactorLattice:
    # (theta1, theta2, distinct keys): T1 / T2 = 8, its mirror 1/8, an odd
    # rung difference raised to T1 / T2 = 4, and T1 / T2 = 256, where no
    # two nodes share a key
    POINTS = [(8.0, 1.0, 1633), (1.0, 8.0, 961), (2.0 ** 1.5, 1.0, 865),
              (256.0, 1.0, 18721)]

    @pytest.mark.parametrize("theta1, theta2, keys", POINTS)
    def test_factor_runs_once_per_distinct_key(self, lattice_link, theta1,
                                               theta2, keys):
        cfg = Inversion2DConfig()
        periods = cfg.resolve(theta1, theta2, lattice=True)
        size, make_u, view = laplace._lattice(periods, cfg)
        assert size == keys and make_u().shape == (keys,)
        assert view(_factor(make_u())).shape == (97, 193)
        # the near user's transform asks for its factor there, once
        link, phi, _, _ = lattice_link
        seen = []

        def counting(u):
            seen.append(u.shape)
            return phi(u)

        F = outage._near_joint_transform(link.eff_near, link.pair, counting)
        grid = laplace._transform_grid(F, periods, cfg, lattice=True)
        assert seen == [(keys,)]
        assert keys <= grid.size == 97 * 193

    @pytest.mark.parametrize("theta1, theta2", [p[:2] for p in POINTS])
    def test_lattice_grid_matches_per_node_evaluation(self, theta1, theta2):
        # the lattice rounds Im(s + t) once instead of per node, so the
        # grids differ by about 1e-16 |log phi| relative (2e-15 measured)
        cfg = Inversion2DConfig()
        periods = cfg.resolve(theta1, theta2, lattice=True)
        _, make_u, view = laplace._lattice(periods, cfg)
        s, t = laplace._contour(periods, cfg)
        grid = _coupled_form(s, t) * view(_factor(make_u()))
        want = _coupled_form(s, t) * _factor(s + t)
        np.testing.assert_allclose(grid, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("theta1, theta2", [(64.0, 1.0), (256.0, 1.0)])
    def test_lattice_product_runs_in_the_written_order(self, lattice_link,
                                                       theta1, theta2):
        # a grid over 256 KiB (L + 2 p_eps >= 90), where numpy may write a
        # product into a temporary operand, on the lattices where the near
        # user's transform runs its per-node loop (12,385 keys at
        # T1 / T2 = 64, one key per node at 256): the factor multiplies the
        # loop's grid in place, so the product keeps the bits of
        # form * gathered factor
        link, phi, F, form = lattice_link
        cfg = Inversion2DConfig()
        assert 97 * 193 * 16 > 256 * 1024
        T1, T2, c1, c2 = periods = cfg.resolve(theta1, theta2, lattice=True)
        grid = laplace._transform_grid(F, periods, cfg, lattice=True)
        s, t = laplace._contour(periods, cfg)
        l1 = np.arange(0, 97)[:, None]
        l2 = np.arange(-96, 97)[None, :]
        ratio = round(math.log2(T1 / T2))
        if ratio >= 0:
            key, T = l1 + 2 ** ratio * l2, T1
        else:
            key, T = 2 ** -ratio * l1 + l2, T2
        lo, hi = key.min(), key.max()
        if hi - lo < key.size:
            keys = np.arange(lo, hi + 1)
            gathered = phi((c1 + c2) + 1j * math.pi * keys / T)[key - lo]
        else:
            keys = key.ravel()
            gathered = phi((c1 + c2) + 1j * math.pi * keys / T
                           ).reshape(key.shape)
        want = form(s, t) * gathered
        assert grid.tobytes() == want.tobytes()

    @pytest.mark.parametrize("factor", [lambda u: 0.5,
                                        lambda u: _factor(u)[:-1]])
    def test_factor_of_the_wrong_shape_is_rejected(self, factor):
        # the grid reads the factor through a strided view, which must not
        # reach past the per-key values
        cfg = Inversion2DConfig()
        periods = cfg.resolve(8.0, 1.0, lattice=True)
        _, make_u, view = laplace._lattice(periods, cfg)
        with pytest.raises(ValueError, match="lattice keys"):
            view(factor(make_u()))

    def test_constant_factor_keeps_the_plain_ladder(self, monkeypatch):
        # an odd rung difference, which the lattice rule would raise: a
        # transform without factor keeps the plain periods
        theta1, theta2 = 2.0 ** 1.5, 1.0
        cfg = Inversion2DConfig()
        assert cfg.resolve(theta1, theta2) != cfg.resolve(theta1, theta2,
                                                          lattice=True)
        summed = []
        monkeypatch.setattr(laplace, "_sum_grid",
                            lambda F, t1, t2, periods, cfg: summed.append(
                                periods) or 0.0)
        invert_2d(_coupled_form, theta1, theta2)
        assert summed == [cfg.resolve(theta1, theta2)]

    @pytest.mark.parametrize("R_kt, bits", [(1.74, "0x1.d456ce22fcf8ap-1"),
                                            (1.72, "0x1.a4343347b4000p-15")])
    def test_interference_free_near_user_keeps_its_bits(self, monkeypatch,
                                                        R_kt, bits):
        # at lambda_b = 0 the near user's 2D inversion runs without a
        # factor, on the plain periods (the fig6 points, whose rungs differ
        # by an odd count), and gives pinned bits.  These points amplify
        # rounding by about 2e9: the sum over the phase-weighted grid copy
        # moves the raw value by 1.4e-6 at 1.74 and 4.5e-7 at 1.72 on the
        # same grid.
        params = NetworkParams(lambda_b=0.0)
        link = build_scenario(params, PairConfig(R_k=2 * R_kt, R_kt=R_kt),
                              kappa=0.9, k_factor_db=50.0,
                              seed=20240717).link(1)
        calls = []

        def recording(transform, theta1, theta2, config=None, lattice=False):
            calls.append((transform, theta1, theta2, lattice))
            return invert_2d(transform, theta1, theta2, config, lattice)

        monkeypatch.setattr(outage, "invert_2d", recording)
        cfg = Inversion2DConfig()
        got = near_outage_conditional_exact(link.eff_near, link.pair, params,
                                            cfg)
        (transform, theta1, theta2, lattice), = calls
        assert lattice is False
        periods = cfg.resolve(theta1, theta2)
        assert periods != cfg.resolve(theta1, theta2, lattice=True)
        assert got.raw.hex() == bits
        grid = laplace._transform_grid(transform, periods, cfg)
        want = 1.0 - _phase_weighted_sum_grid(grid, theta1, theta2, periods,
                                              cfg)
        assert abs(got.raw - want) <= 5e-6


def _rung_above(T):
    """The next half-period up the ladder from T."""
    return 1.25 * 2.0 ** (0.5 * (round(2 * math.log2(T / 1.25)) + 1))


class TestPeriodLadder:
    @staticmethod
    def _abscissae():
        # exact powers of sqrt(2) and their float neighbours, so rounding in
        # log2 is exercised, plus a dense geometric sweep
        rungs = [2.0 ** (0.5 * j) for j in range(-40, 41)]
        return [*rungs, *np.nextafter(rungs, 0.0), *np.nextafter(rungs, np.inf),
                *np.geomspace(1e-6, 1e6, 1001)]

    def test_half_periods_sit_on_the_half_octave_ladder(self):
        cfg = Inversion2DConfig()
        lowest = 0.8 / math.sqrt(2) * (1 - 1e-12)
        for theta in self._abscissae():
            T1, T2, _, _ = cfg.resolve(theta, 1.0 / theta)
            for th, T in ((theta, T1), (1.0 / theta, T2)):
                j = round(2 * math.log2(T / 1.25))
                assert T == 1.25 * 2.0 ** (0.5 * j), th
                assert lowest < th / T <= 0.8, th

    def test_lattice_periods_are_a_power_of_two_apart(self):
        # the s axis goes at most one rung up, to theta1 / T1 in (0.4, 0.8]
        cfg = Inversion2DConfig()
        lowest = 0.8 / math.sqrt(2) * (1 - 1e-12)
        for theta in self._abscissae():
            for theta1, theta2 in ((theta, 1.0 / theta), (theta, 1.7),
                                   (0.3, theta)):
                T1, T2, _, _ = cfg.resolve(theta1, theta2, lattice=True)
                plain_T1, plain_T2, _, _ = cfg.resolve(theta1, theta2)
                assert T2 == plain_T2
                assert T1 in (plain_T1, _rung_above(plain_T1))
                k = math.log2(T1 / T2)
                assert k == round(k), (theta1, theta2)
                assert 0.4 * (1 - 1e-12) < theta1 / T1 <= 0.8, theta1
                assert lowest < theta2 / T2 <= 0.8, theta2
                assert T1 / plain_T1 <= math.sqrt(2) * (1 + 1e-15)


class TestEpsilonAcceleration:
    def test_alternating_log_series(self):
        # partial sums of sum (-1)^n / (n+1) accelerate toward ln 2
        terms = [(-1.0) ** n / (n + 1) for n in range(5)]
        sums = np.cumsum(terms)
        assert abs(epsilon_accelerate(sums) - math.log(2)) <= 1e-3

    def test_constant_sequence(self):
        assert epsilon_accelerate([4.2, 4.2, 4.2]) == pytest.approx(4.2)

    def test_geometric_series_exact(self):
        sums = np.cumsum([0.5 ** n for n in range(5)])
        assert abs(epsilon_accelerate(sums) - 2.0) <= 1e-10

    def test_degradation_returns_last_sum(self):
        assert epsilon_accelerate([1.0, 1.0, 2.0]) == pytest.approx(2.0)

    def test_requires_odd_count(self):
        with pytest.raises(ValueError):
            epsilon_accelerate([1.0, 2.0])
        with pytest.raises(ValueError):
            epsilon_accelerate(np.ones((3, 4)))

    def test_one_dimensional_input_returns_a_scalar(self):
        assert type(epsilon_accelerate([1.0, 1.5, 1.75])) is float
        assert np.ndim(epsilon_accelerate([1j, 1.5j, 1.75j])) == 0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_reference_freezes_the_intended_rows(self, rng, kind):
        # a table frozen at step k keeps k columns, an unfrozen one all 17
        columns = [len(list(_wynn_columns(row))) for row in _tables(rng, kind)]
        assert columns == [1, 2, 3, 17, 17]

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_batched_rows_match_reference_bitwise(self, rng, kind):
        table = _tables(rng, kind)
        assert _same_bits(epsilon_accelerate(table), _epsilon_reference(table))
        for rows in ([0], [1], [2], [3], [4], [3, 4], [1, 3], [2, 4]):
            got = epsilon_accelerate(table[rows])
            assert _same_bits(got, _epsilon_reference(table[rows]))
            for row, value in zip(rows, got):
                assert _same_bits(value, _epsilon_reference(table[row]))

    def test_frozen_rows_keep_their_best_even_entry(self, rng):
        table = _tables(rng)
        got = epsilon_accelerate(table)
        assert got[0] == table[0, -1]   # frozen before any even column
        assert got[1] == table[1, -1]
        assert got[2] == 1.0            # frozen after the exact e_2 column
        assert abs(got[3] - math.log(2)) <= 1e-12

    def test_nan_row_does_not_hide_a_freezing_row(self, rng):
        # a NaN difference compares false, so a batch-wide minimum would
        # miss the exact e_2 column of the second row
        table = _tables(rng)[[3, 2]]
        table[0, 5] = np.nan
        got = epsilon_accelerate(table)
        assert np.isnan(got[0])
        assert got[1] == 1.0
        assert _same_bits(got[1], _epsilon_reference(table[1]))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_a_unit_phase_commutes_with_the_table(self, rng, kind):
        # eps(c x) = c eps(x) for |c| = 1, which lets `_sum_grid` apply its
        # row phases after the pass.  Quarter turns are exact, and keep the
        # bits; other phases hold to the rounding that the tables amplify
        # (2.7e-12 relative measured, on the random row), on rows that
        # freeze at an exact zero difference or never.  Row 1 freezes on a
        # tie of two equal differences, which a rotation's rounding breaks.
        table = _tables(rng, kind)
        want = epsilon_accelerate(table)
        for c in (1j, -1.0, -1j):
            assert _same_bits(epsilon_accelerate(c * table), c * want)
        kept = [0, 2, 3, 4]
        for theta in (0.3, 1.0, 2.5, -1.2):
            c = np.exp(1j * theta)
            got = epsilon_accelerate(c * table)
            np.testing.assert_allclose(got[kept], c * want[kept], rtol=1e-11,
                                       atol=0)

    def test_leading_axes_are_independent_tables(self, rng):
        stack = np.stack([_tables(rng), _tables(rng)])
        got = epsilon_accelerate(stack)
        assert got.shape == (2, 5)
        assert _same_bits(got, _epsilon_reference(stack))
