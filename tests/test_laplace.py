import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from nomacell import (Inversion1DConfig, Inversion2DConfig, NetworkParams,
                      build_scenario,
                      epsilon_accelerate, invert_1d, invert_2d,
                      near_outage_conditional_exact)
from nomacell import laplace, outage


def _epsilon_reference(partial_sums, return_diagnostics=False):
    """Row-by-row Wynn recursion: one scalar table per leading index, each
    stopping at its own first singular difference.  The batched kernel must
    reproduce it bit for bit."""
    sums = np.asarray(partial_sums)
    if sums.ndim > 1:
        out = np.empty(sums.shape[:-1], dtype=complex)
        degraded = False
        for idx in np.ndindex(out.shape):
            out[idx], d = _epsilon_reference(sums[idx], return_diagnostics=True)
            degraded |= d
        value = out if np.iscomplexobj(sums) else out.real
        return (value, degraded) if return_diagnostics else value
    n = len(sums)
    e_prev = np.zeros(n + 1, dtype=complex)
    e_curr = sums.astype(complex)
    best = e_curr[-1]
    degraded = False
    for k in range(1, n):
        diff = e_curr[1:] - e_curr[:-1]
        if np.any(np.abs(diff) < 1e-300):
            degraded = True
            break
        e_next = e_prev[1:len(e_curr)] + 1.0 / diff
        e_prev, e_curr = e_curr, e_next
        if k % 2 == 0:
            best = e_curr[-1]
    value = best if np.iscomplexobj(sums) else float(best.real)
    return (value, degraded) if return_diagnostics else value


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

    def test_flags_nonfinite_transform(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(FloatingPointError):
                invert_1d(lambda s: 1 / (s - s), 1.0)


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

    def test_epsilon_degradation_flag_surfaces(self):
        # only the first few harmonics are nonzero, so every row's partial
        # sums are constant over the extrapolation window
        def F(s, t):
            keep = (np.abs(s.imag) < 10.0) & (np.abs(t.imag) < 10.0)
            return np.where(keep, 1 / (s * t), 0.0)

        _, info = invert_2d(F, 1.0, 1.0, full_output=True)
        assert info["epsilon_degraded"] is True

    def test_degraded_inversion_surfaces_in_outage_flag(self, table_scenario,
                                                        table_params,
                                                        monkeypatch):
        link = table_scenario.link(1)
        joint = outage._near_joint_transform

        def real_axis_only(*args):
            F = joint(*args)
            return lambda s, t: np.where((s.imag == 0) & (t.imag == 0),
                                         F(s, t), 0.0)

        monkeypatch.setattr(outage, "_near_joint_transform", real_axis_only)
        res = near_outage_conditional_exact(link.eff_near, link.pair,
                                            table_params)
        assert res.flag == "epsilon_degraded"

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
            return [near_outage_conditional_exact(lk.eff_near, lk.pair, params)
                    for lk in links]

        batched = near_all()
        monkeypatch.setattr(laplace, "epsilon_accelerate", _epsilon_reference)
        rowwise = near_all()
        for got, want in zip(batched, rowwise):
            assert _same_bits(got.raw, want.raw)
            assert got.flag == want.flag
        assert any(r.flag == "epsilon_degraded" for r in batched)

    def test_rejects_nonpositive_abscissae(self):
        with pytest.raises(ValueError):
            invert_2d(lambda s, t: 1 / (s * t), -1.0, 1.0)

    def test_stored_grids_give_the_same_bits(self):
        # abscissae on one ladder rung share a grid; the dict keeps the most
        # recently used grid last
        calls = []

        def F(s, t):
            calls.append(s.shape)
            return 1 / (s * t * (1 + s + t))

        grids = {}
        points = [(1.0, 2.0), (0.9, 1.9), (3.0, 2.0), (0.95, 1.8)]
        for point in points:
            cached = invert_2d(F, *point, grids=grids)
            assert _same_bits(cached, invert_2d(F, *point))
        assert len(calls) == 2 * len(points) - 2
        assert len(grids) == 2
        assert next(reversed(grids))[2:] == Inversion2DConfig().resolve(1.0, 2.0)

        # more rungs than the dict holds: the least recently used go first
        rungs = [(2.0 ** (0.5 * j), 2.0) for j in range(laplace._MAX_GRIDS + 3)]
        for point in rungs:
            cached = invert_2d(F, *point, grids=grids)
            assert _same_bits(cached, invert_2d(F, *point))
        assert len(grids) == laplace._MAX_GRIDS
        assert [key[2:] for key in grids] == [
            Inversion2DConfig().resolve(*point)
            for point in rungs[-laplace._MAX_GRIDS:]]


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
        val, degraded = epsilon_accelerate([1.0, 1.0, 2.0],
                                           return_diagnostics=True)
        assert degraded
        assert val == pytest.approx(2.0)

    def test_requires_odd_count(self):
        with pytest.raises(ValueError):
            epsilon_accelerate([1.0, 2.0])
        with pytest.raises(ValueError):
            epsilon_accelerate(np.ones((3, 4)))

    def test_one_dimensional_input_returns_a_scalar(self):
        val, degraded = epsilon_accelerate([1.0, 1.5, 1.75],
                                           return_diagnostics=True)
        assert type(val) is float and type(degraded) is bool
        assert np.ndim(epsilon_accelerate([1j, 1.5j, 1.75j])) == 0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_reference_freezes_the_intended_rows(self, rng, kind):
        flags = [_epsilon_reference(row, return_diagnostics=True)[1]
                 for row in _tables(rng, kind)]
        assert flags == [True, True, True, False, False]

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_batched_rows_match_reference_bitwise(self, rng, kind):
        table = _tables(rng, kind)
        got, degraded = epsilon_accelerate(table, return_diagnostics=True)
        want, want_degraded = _epsilon_reference(table, return_diagnostics=True)
        assert _same_bits(got, want)
        assert degraded is want_degraded is True
        for rows in ([0], [1], [2], [3], [4], [3, 4], [1, 3], [2, 4]):
            got, degraded = epsilon_accelerate(table[rows],
                                               return_diagnostics=True)
            want, want_degraded = _epsilon_reference(table[rows],
                                                     return_diagnostics=True)
            assert _same_bits(got, want)
            assert degraded is want_degraded
            for row, value in zip(rows, got):
                assert _same_bits(value, _epsilon_reference(table[row]))

    def test_frozen_rows_keep_their_best_even_entry(self, rng):
        table = _tables(rng)
        got = epsilon_accelerate(table)
        assert got[0] == table[0, -1]   # frozen before any even column
        assert got[1] == table[1, -1]
        assert got[2] == 1.0            # frozen after the exact e_2 column
        assert abs(got[3] - math.log(2)) <= 1e-12

    def test_leading_axes_are_independent_tables(self, rng):
        stack = np.stack([_tables(rng), _tables(rng)])
        got = epsilon_accelerate(stack)
        assert got.shape == (2, 5)
        assert _same_bits(got, _epsilon_reference(stack))
