"""The near user's joint outage against its own 1D marginals.

On a link population fixed before any result was looked at, the exact
near-user outage p_near, from the public operators at their defaults,
must lie in the Frechet-Hoeffding band of its two decoding stages,
max(p_sic, p_own) <= p_near <= min(1, p_sic + p_own), and at most the
stage-independence value 1 - (1 - p_sic)(1 - p_own).  Each marginal is
one near stage alone through `outage._outage`, inverted in 1D at Euler
order (40, 200).  The tolerance is 1e-7, the 2D path's agreement budget:
the lower band misses by up to about 1e-8 on this population, which is
the 2D path's own discretization target.  Run with `-s` to print the
worst value of each check and the case where it occurs.

The shipped joint is also checked against the independent 2D route
(`Inversion2DConfig(L=160, p_eps=10)`) within 1e-7, on a second
population drawn before any result was looked at, and on the cases
without a conditioning Gaussian (mu_k = 0, and no estimation error).
"""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from nomacell import (GroupingPolicy, Inversion1DConfig, Inversion2DConfig,
                      NetworkParams, PairConfig, build_scenario, invert_1d,
                      invert_2d,
                      near_outage_average, near_outage_conditional_exact,
                      outage)

TOL = 1e-7
MARGINAL_CFG = Inversion1DConfig(m_euler=40, q=200)
LAMBDAS = (0.0, 1e-7, 1e-5, 1e-4)
K_FACTORS_DB = (10.0, 30.0)
RATES = ((0.5, 0.25), (1.0, 0.5), (2.0, 1.0))
KAPPA, SEED = 0.5, 1


def _marginals(eff, pair, params, policy):
    """(p_sic, p_own): each near stage's outage on its own."""
    noise, phi = outage._user_law(eff, pair, params, False, policy)
    stages = outage._near_stages(eff, pair,
                                 *outage._near_abscissae(eff, pair, noise))
    return tuple(outage._outage(eff, pair, (stage,), phi,
                                MARGINAL_CFG).probability
                 for stage in stages)


def _cases():
    """(case label, eff, pair, params, policy or None for conditional)."""
    for K, lambda_b, kdb in itertools.product((2, 3), LAMBDAS, K_FACTORS_DB):
        params = NetworkParams(M=3, N=K, K=K, lambda_b=lambda_b)
        modes = [("conditional", None)]
        if lambda_b > 0:
            modes += [(f"average-{v}", GroupingPolicy(v))
                      for v in ("random", "distance")]
        for mode, policy in modes:
            sc = build_scenario(params, PairConfig(), kappa=KAPPA,
                                k_factor_db=kdb, seed=SEED, policy=policy)
            for k, (R_k, R_kt) in itertools.product(range(1, K + 1), RATES):
                link = sc.link(k)
                label = (f"K={K} pair={k} lambda_b={lambda_b:g} {kdb:g} dB "
                         f"{mode} (R_k, R_kt)=({R_k:g}, {R_kt:g})")
                yield (label, link.eff_near, link.pair.with_rates(R_k, R_kt),
                       params, policy)


@pytest.fixture(scope="module")
def sweep():
    """Per case: (label, p_near, p_sic, p_own)."""
    rows = []
    for label, eff, pair, params, policy in _cases():
        if policy is None:
            p_near = near_outage_conditional_exact(eff, pair, params)
        else:
            p_near = near_outage_average(eff, pair, params, policy)
        rows.append((label, p_near.probability,
                     *_marginals(eff, pair, params, policy)))
    assert len(rows) == 300
    return rows


def _worst(rows, miss, name):
    """Largest miss over the cases (positive: the check is violated)."""
    value, label = max((miss(*row[1:]), row[0]) for row in rows)
    print(f"\n{name}: worst miss {value:.3g} at {label}")
    return value, label


CHECKS = {
    "lower band": lambda p, sic, own: max(sic, own) - p,
    "upper band": lambda p, sic, own: p - min(1.0, sic + own),
    "exact <= approx": lambda p, sic, own: p - (1.0 - (1.0 - sic) * (1.0 - own)),
}


@pytest.mark.parametrize("name", CHECKS)
def test_near_joint_within_its_marginals(sweep, name):
    value, label = _worst(sweep, CHECKS[name], name)
    assert value <= TOL, label


REFERENCE_2D = Inversion2DConfig(L=160, p_eps=10)
# links per (K, lambda_b, mode) of the joint population
JOINT_DRAWS = 4


def _shipped(eff, pair, params, policy):
    if policy is None:
        return near_outage_conditional_exact(eff, pair, params)
    return near_outage_average(eff, pair, params, policy)


def _reference(eff, pair, params, policy):
    return outage._NearJoint(eff, pair, params, REFERENCE_2D,
                             policy=policy)(pair.R_k, pair.R_kt)


def _joint_cases():
    """(case label, eff, pair, params, policy or None): K in {2, 3}, every
    pair, lambda_b in LAMBDAS, conditional and (with interference) both
    policies, each on JOINT_DRAWS links with the K-factor on 0-40 dB,
    kappa on [0, 0.95] and both rates on 0.25-2 drawn from one seed."""
    rng = np.random.default_rng(2033)
    for K, lambda_b in itertools.product((2, 3), LAMBDAS):
        params = NetworkParams(M=3, N=K, K=K, lambda_b=lambda_b)
        modes = [("conditional", None)]
        if lambda_b > 0:
            modes += [(f"average-{v}", GroupingPolicy(v))
                      for v in ("random", "distance")]
        for (mode, policy), _ in itertools.product(modes, range(JOINT_DRAWS)):
            kdb, kappa = rng.uniform(0.0, 40.0), rng.uniform(0.0, 0.95)
            sc = build_scenario(params, PairConfig(), kappa=float(kappa),
                                k_factor_db=float(kdb),
                                seed=int(rng.integers(2 ** 31)), policy=policy)
            for k in range(1, K + 1):
                R_k, R_kt = (float(r) for r in rng.uniform(0.25, 2.0, 2))
                link = sc.link(k)
                label = (f"K={K} pair={k} lambda_b={lambda_b:g} {kdb:.1f} dB "
                         f"kappa={kappa:.2f} {mode} "
                         f"(R_k, R_kt)=({R_k:.3f}, {R_kt:.3f})")
                yield (label, link.eff_near, link.pair.with_rates(R_k, R_kt),
                       params, policy)


def test_near_joint_matches_the_2d_reference():
    rows = [(case[0], abs(_shipped(*case[1:]).raw - _reference(*case[1:]).raw))
            for case in _joint_cases()]
    assert len(rows) == 200
    value, label = _worst(rows, lambda miss: miss, "joint vs 2D reference")
    assert value <= TOL, label


@pytest.mark.parametrize("lambda_b, policy", [
    (1e-5, None), (1e-5, GroupingPolicy("random")),
    (1e-7, GroupingPolicy("distance"))])
def test_error_free_near_joint_matches_the_2d_reference(lambda_b, policy):
    # no estimation error leaves no Gaussian to condition on: the joint
    # is the own-message form at the smaller threshold
    params = NetworkParams(lambda_b=lambda_b)
    sc = build_scenario(params, PairConfig(), kappa=0.9, k_factor_db=20.0,
                        seed=SEED, policy=policy)
    link = sc.link(1)
    eff = replace(link.eff_near, delta=np.zeros(2))
    for R_k, R_kt in RATES:
        pair = link.pair.with_rates(R_k, R_kt)
        got = _shipped(eff, pair, params, policy)
        assert 0.0 < got.raw < 1.0
        assert abs(got.raw - _reference(eff, pair, params, policy).raw) <= TOL


@pytest.mark.parametrize("lambda_b", [0.0, 1e-5])
def test_near_joint_without_own_gain_matches_the_2d_reference(lambda_b):
    # mu_k = 0 zeroes both thresholds through the operators, so the joint
    # is evaluated at chosen thresholds: both stages then hold the same
    # form, and the joint is its 1D inversion at the smaller one.  Off the
    # diagonal it matches the 2D route; on it, where the joint law has its
    # kink, the 2D route misses by 4.1e-4 to 4.7e-4 (1.9e-4 to 2.3e-4 at
    # L = 320), and the own-message form alone at Euler (40, 200) is the
    # reference
    params = NetworkParams(lambda_b=lambda_b)
    link = build_scenario(params, PairConfig(), kappa=0.5, k_factor_db=10.0,
                          seed=SEED).link(1)
    eff, pair = link.eff_near, link.pair
    eff = replace(eff, mu=np.where(np.arange(eff.K) == eff.stream, 0.0,
                                   eff.mu))
    _, phi = outage._user_law(eff, pair, params, False)
    joint = outage._ConditionedJoint(eff, pair.beta_k2)
    assert joint.sd == 0.0
    form = outage._near_joint_transform(eff, pair, phi)
    scale = float(np.sum(eff.delta + np.abs(eff.mu) ** 2))
    own = outage._quadform_transform_1d(outage._projected_mean(eff, 0.0),
                                        eff.delta, phi)
    for theta_sic, theta_own in ((1.0, 2.0), (2.0, 1.0), (1.5, 1.5)):
        got = joint(theta_sic * scale, theta_own * scale, phi)
        assert 0.0 < got < 1.0
        want = invert_1d(own, min(theta_sic, theta_own) * scale, MARGINAL_CFG)
        assert abs(got - want) <= TOL
        if theta_sic != theta_own:
            want = invert_2d(form, theta_sic * scale, theta_own * scale,
                             REFERENCE_2D, lattice=phi is not None)
            assert abs(got - want) <= TOL


@pytest.mark.parametrize("lambda_b", [0.0, 1e-5])
def test_concentrated_plain_links_match_the_2d_reference(lambda_b):
    # unprecoded links at high K-factors, where the own-message form given
    # Z concentrates far within its threshold and the default Euler order
    # rings (by up to 3.5e-2 on the lambda_b = 0, 30 dB seed-4 link).  The
    # inner order ladder keeps the joint within the 1e-4 inversion budget of
    # the 2D route at L = 320 (6.8e-5 at 45 dB, seed 4, lambda_b = 1e-5,
    # where the default 2D route missed by 2.7e-4 and L = 160 by 1.3e-4)
    params = NetworkParams(lambda_b=lambda_b)
    reference = Inversion2DConfig(L=320, p_eps=12)
    for kdb, seed in itertools.product((30.0, 45.0), (4, 5, 6, 7)):
        link = build_scenario(params, PairConfig(), k_factor_db=kdb, seed=seed,
                              scheme="plain").link(1)
        for R_k, R_kt in ((0.47629, 0.72396), (0.47687, 0.72487), (0.3, 0.72),
                          (1.0, 0.5)):
            pair = link.pair.with_rates(R_k, R_kt)
            got = near_outage_conditional_exact(link.eff_near, pair, params)
            want = near_outage_conditional_exact(link.eff_near, pair, params,
                                                 reference)
            assert abs(got.raw - want.raw) <= 1e-4, (kdb, seed, R_k, R_kt)
