"""Scenario assembly: channel realizations, precoder design and pair links.

The known channel parts are drawn once per experiment from a pinned seed
and rescaled to a fixed Frobenius norm; the error variance is derived from
the configured channel quality factor.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .design import LinearDesign, PairLink, build_precoder
from .geometry import GroupingPolicy
from .model import (ChannelEstimate, NetworkParams, PairConfig,
                    error_variance_for_k_factor, exponential_covariance,
                    sample_channel_matrix)
from .outage import effective_channel

__all__ = ["Scenario", "build_scenario"]


@dataclass(frozen=True)
class Scenario:
    """A fully realized experiment: channels, design and per-pair links."""

    params: NetworkParams
    policy: GroupingPolicy
    ests_near: tuple[ChannelEstimate, ...]
    ests_far: tuple[ChannelEstimate, ...]
    design: LinearDesign
    links: tuple[PairLink, ...]

    def link(self, pair_index: int = 1) -> PairLink:
        return self.links[pair_index - 1]

    def with_pair_rates(self, R_k: float | None = None,
                        R_kt: float | None = None) -> "Scenario":
        """Same realization with all pairs retargeted to new rates."""
        return replace(self, links=tuple(
            replace(l, pair=l.pair.with_rates(R_k, R_kt)) for l in self.links))


def _matched_filter(est: ChannelEstimate, V: np.ndarray, stream: int) -> np.ndarray:
    h = est.H_hat @ V[:, stream]
    n = np.linalg.norm(h)
    if n == 0:
        raise ValueError("matched filter undefined for a zero channel column")
    return h / n


def build_scenario(params: NetworkParams,
                   pair_template: PairConfig | None = None,
                   kappa: float = 0.9,
                   k_factor_db: float = 20.0,
                   seed: int = 20240717,
                   policy: GroupingPolicy | None = None,
                   scheme: str = "aligned",
                   h_norm2: float | None = None) -> Scenario:
    """Draw a channel realization and build the configured transmit design.

    `scheme` is `aligned` (signal-alignment precoder) or `plain`
    (identity-column precoding with matched filters).  The tracked pair
    template supplies power split, rates and distances for every pair.
    """
    template = pair_template or PairConfig()
    policy = policy or GroupingPolicy("distance")
    h_norm2 = float(params.M * params.N) if h_norm2 is None else h_norm2
    R_t = exponential_covariance(params.M, kappa)
    R_r = exponential_covariance(params.N, kappa)
    sigma_h2 = error_variance_for_k_factor(10.0 ** (k_factor_db / 10.0),
                                           h_norm2, R_t, R_r)

    streams = np.random.SeedSequence(seed).spawn(2 * params.K)
    rngs = [np.random.default_rng(s) for s in streams]
    H_near = [sample_channel_matrix(params.N, params.M, h_norm2, rngs[2 * k])
              for k in range(params.K)]
    H_far = [sample_channel_matrix(params.N, params.M, h_norm2, rngs[2 * k + 1])
             for k in range(params.K)]

    ests_near = tuple(ChannelEstimate(H, R_t, R_r, sigma_h2) for H in H_near)
    ests_far = tuple(ChannelEstimate(H, R_t, R_r, sigma_h2) for H in H_far)

    if scheme == "aligned":
        design = build_precoder(list(zip(H_near, H_far)), params)
        u_near, u_far = design.u_near, design.u_far
        V = design.V
    elif scheme == "plain":
        V = np.eye(params.M, dtype=complex)[:, :params.K]
        u_near = np.array([_matched_filter(ests_near[k], V, k)
                           for k in range(params.K)])
        u_far = np.array([_matched_filter(ests_far[k], V, k)
                          for k in range(params.K)])
        design = LinearDesign(V=V, u_near=u_near, u_far=u_far,
                              L=V.copy(), gamma=np.ones(params.K),
                              flags=("plain",))
    else:
        raise ValueError(f"unknown design scheme {scheme!r}")

    links = []
    for k in range(1, params.K + 1):
        r_k, r_kt = policy.ranks(k, params.K)
        pair = PairConfig(template.beta_k2, template.R_k, template.R_kt,
                          template.d_k, template.d_kt, r_k, r_kt)
        eff_n = effective_channel(ests_near[k - 1], V, u_near[k - 1], k - 1,
                                  params)
        eff_f = effective_channel(ests_far[k - 1], V, u_far[k - 1], k - 1,
                                  params)
        links.append(PairLink(eff_n, eff_f, pair))
    return Scenario(params=params, policy=policy,
                    ests_near=ests_near, ests_far=ests_far, design=design,
                    links=tuple(links))
