import math
from dataclasses import replace

import numpy as np
import pytest

from nomacell import (NetworkParams, PairConfig, build_scenario,
                      estimate_goodput, estimate_outage, far_outage_conditional,
                      near_outage_conditional_approx,
                      near_outage_conditional_exact)
from nomacell.montecarlo import _chunk_counts, _sinr_pair


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
