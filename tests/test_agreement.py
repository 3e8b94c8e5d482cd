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
"""
import itertools

import pytest

from nomacell import (GroupingPolicy, Inversion1DConfig, NetworkParams,
                      PairConfig, build_scenario, near_outage_average,
                      near_outage_conditional_exact, outage)

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
