import math

import numpy as np
import pytest

from nomacell import (ChannelEstimate, NetworkParams, PairConfig,
                      build_scenario, channel_k_factor,
                      error_variance_for_k_factor, exponential_covariance,
                      sample_channel_matrix, sample_error_matrix)
from nomacell.model import _hermitian_sqrt


class TestExponentialCovariance:
    def test_zero_kappa_is_identity(self):
        assert np.allclose(exponential_covariance(2, 0.0), np.eye(2))

    def test_entries_follow_power_law(self):
        R = exponential_covariance(3, 0.9)
        assert R[0, 2] == pytest.approx(0.81)
        assert R[1, 0] == pytest.approx(0.9)
        assert np.allclose(np.diag(R), 1.0)

    def test_psd_by_eigendecomposition(self):
        w = np.linalg.eigvalsh(exponential_covariance(4, 0.5))
        assert w.min() > 0.0

    def test_psd_across_kappa_range(self):
        for kappa in np.linspace(0.0, 0.999, 25):
            w = np.linalg.eigvalsh(exponential_covariance(5, kappa))
            assert w.min() >= -1e-12

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            exponential_covariance(3, 1.0)
        with pytest.raises(ValueError):
            exponential_covariance(3, -0.1)


def _estimate(kappa=0.9, sigma_h2=0.01, N=2, M=3, rng=None):
    rng = rng or np.random.default_rng(0)
    H = sample_channel_matrix(N, M, N * M, rng)
    return ChannelEstimate(H, exponential_covariance(M, kappa),
                           exponential_covariance(N, kappa), sigma_h2)


class TestErrorSampler:
    def test_zero_variance_gives_zero_matrix(self, rng):
        est = _estimate(sigma_h2=0.0)
        assert np.all(sample_error_matrix(est, rng) == 0)

    def test_replay_determinism(self):
        est = _estimate()
        a = sample_error_matrix(est, np.random.default_rng(7), size=4)
        b = sample_error_matrix(est, np.random.default_rng(7), size=4)
        assert np.array_equal(a, b)

    def test_white_covariance(self, rng):
        # R_t = R_r = I: empirical covariance of vec(E) -> sigma_h2 * I.
        sigma_h2 = 0.5
        est = ChannelEstimate(np.ones((2, 3), complex), np.eye(3, dtype=complex),
                              np.eye(2, dtype=complex), sigma_h2)
        E = sample_error_matrix(est, rng, size=100_000)
        vec = E.reshape(len(E), -1)
        emp = vec.conj().T @ vec / len(vec)
        stderr = sigma_h2 / math.sqrt(len(vec))
        off = emp - sigma_h2 * np.eye(6)
        assert np.abs(off).max() <= 3.5 * stderr

    def test_kronecker_covariance(self, rng):
        # cov(vec(E)) -> sigma_h2 * (R_t^T kron R_r), entrywise 3 stderr.
        sigma_h2 = 0.2
        est = _estimate(kappa=0.9, sigma_h2=sigma_h2)
        n = 100_000
        E = sample_error_matrix(est, rng, size=n)
        # column-major vec to match the Kronecker convention
        vec = E.transpose(0, 2, 1).reshape(n, -1)
        emp = vec.conj().T @ vec / n
        want = sigma_h2 * np.kron(est.R_t.T, est.R_r)
        # standard error of each second-moment estimate
        var_prod = (np.abs(vec) ** 2).mean(axis=0)
        stderr = np.sqrt(np.outer(var_prod, var_prod) / n)
        assert np.all(np.abs(emp - want) <= 3.5 * stderr)

    def test_rejects_indefinite_covariance(self):
        R_bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eig -1
        with pytest.raises(ValueError, match="PSD"):
            ChannelEstimate(np.ones((2, 2), complex), R_bad,
                            np.eye(2, dtype=complex), 0.1)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 0.9])
def test_estimates_of_a_scenario_share_their_square_roots(kappa):
    # one eigendecomposition per distinct covariance, with the bits of the
    # root computed per estimate
    params = NetworkParams(K=3, M=4, N=3)
    sc = build_scenario(params, PairConfig(), kappa=kappa, seed=3)
    ests = sc.ests_near + sc.ests_far
    for est in ests:
        assert est._R_t_sqrt is ests[0]._R_t_sqrt
        assert est._R_r_sqrt is ests[0]._R_r_sqrt
        assert est._R_t_sqrt.tobytes() == _hermitian_sqrt(est.R_t).tobytes()
        assert est._R_r_sqrt.tobytes() == _hermitian_sqrt(est.R_r).tobytes()
        assert not est._R_t_sqrt.flags.writeable


class TestKFactor:
    def test_table_parameterization(self):
        # |H|_F^2 = MN = 6, identity profiles, sigma_h2 = 0.01 -> 20 dB.
        H = np.sqrt(np.full((2, 3), 1.0, dtype=complex))
        est = ChannelEstimate(H, np.eye(3, dtype=complex),
                              np.eye(2, dtype=complex), 0.01)
        assert channel_k_factor(est) == pytest.approx(100.0)

    def test_halving_linearity(self):
        est1 = _estimate(sigma_h2=0.01)
        est2 = ChannelEstimate(est1.H_hat, est1.R_t, est1.R_r, 0.02)
        assert channel_k_factor(est1) == pytest.approx(2 * channel_k_factor(est2))

    def test_invariant_to_kappa(self):
        # unit diagonals keep the traces fixed, so kappa drops out
        k1 = channel_k_factor(_estimate(kappa=0.0))
        k2 = channel_k_factor(_estimate(kappa=0.9))
        assert k1 == pytest.approx(k2)

    def test_unitary_invariance(self, rng):
        est = _estimate()
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rot = ChannelEstimate(Q @ est.H_hat, est.R_t, est.R_r, est.sigma_h2)
        assert channel_k_factor(rot) == pytest.approx(channel_k_factor(est))

    def test_zero_variance_sentinel(self):
        assert channel_k_factor(_estimate(sigma_h2=0.0)) == math.inf

    def test_inversion_roundtrip(self):
        R_t = exponential_covariance(3, 0.9)
        R_r = exponential_covariance(2, 0.9)
        s = error_variance_for_k_factor(100.0, 6.0, R_t, R_r)
        est = ChannelEstimate(sample_channel_matrix(2, 3, 6.0,
                                                    np.random.default_rng(1)),
                              R_t, R_r, s)
        assert channel_k_factor(est) == pytest.approx(100.0)


class TestParams:
    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            NetworkParams(alpha=2.0)

    def test_rejects_too_many_pairs(self):
        with pytest.raises(ValueError):
            NetworkParams(M=3, N=2, K=3)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            PairConfig(beta_k2=1.0)
        with pytest.raises(ValueError):
            PairConfig(r_k=3, r_kt=2)

    @pytest.mark.parametrize("rates", [{"R_kt": math.nan}, {"R_k": math.inf},
                                       {"R_kt": 2000.0}, {"R_k": 1024.0},
                                       {"R_k": -0.5}])
    def test_rates_outside_the_finite_threshold_range_rejected(self, rates):
        with pytest.raises(ValueError, match="target rates"):
            PairConfig(**rates)
        assert PairConfig(R_k=1023.0).R_k == 1023.0

    def test_pair_feasibility_flag(self):
        assert PairConfig(beta_k2=0.3, R_kt=0.5).feasible
        assert not PairConfig(beta_k2=0.9, R_kt=3.0).feasible

    def test_channel_norm_rescaling(self, rng):
        H = sample_channel_matrix(2, 3, 6.0, rng)
        assert np.linalg.norm(H) ** 2 == pytest.approx(6.0)
