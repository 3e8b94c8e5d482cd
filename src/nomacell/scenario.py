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


@dataclass(frozen=True, slots=True)
class Scenario:
    """A fully realized experiment: channels, design and per-pair links."""

    params: NetworkParams
    policy: GroupingPolicy
    ests_near: tuple[ChannelEstimate, ...]
    ests_far: tuple[ChannelEstimate, ...]
    design: LinearDesign
    links: tuple[PairLink, ...]

    def link(self, pair_index: int = 1) -> PairLink:
        if not 1 <= pair_index <= len(self.links):
            raise ValueError(f"pair_index must lie in 1..{len(self.links)}, "
                             f"got {pair_index}")
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
    if not 0 < h_norm2 < np.inf:
        raise ValueError(f"h_norm2 must be positive and finite, got {h_norm2}")
    R_t = exponential_covariance(params.M, kappa)
    R_r = exponential_covariance(params.N, kappa)
    sigma_h2 = error_variance_for_k_factor(10.0 ** (k_factor_db / 10.0),
                                           h_norm2, R_t, R_r)

    # near and far estimates alternate, one spawned stream each
    ests = [ChannelEstimate(sample_channel_matrix(params.N, params.M, h_norm2,
                                                  np.random.default_rng(s)),
                            R_t, R_r, sigma_h2)
            for s in np.random.SeedSequence(seed).spawn(2 * params.K)]
    ests_near, ests_far = tuple(ests[0::2]), tuple(ests[1::2])

    if scheme == "aligned":
        design = build_precoder([(n.H_hat, f.H_hat)
                                 for n, f in zip(ests_near, ests_far)], params)
        V = design.V
    elif scheme == "plain":
        V = np.eye(params.M, dtype=complex)[:, :params.K]
        u = np.array([_matched_filter(est, V, i // 2)
                      for i, est in enumerate(ests)])
        design = LinearDesign(V=V, u_near=u[0::2], u_far=u[1::2],
                              L=V.copy(), gamma=np.ones(params.K),
                              flags=("plain",))
    else:
        raise ValueError(f"unknown design scheme {scheme!r}")

    links = []
    for k in range(params.K):
        r_k, r_kt = policy.ranks(k + 1, params.K)
        effs = [effective_channel(side[k], V, filters[k], k, params)
                for side, filters in ((ests_near, design.u_near),
                                      (ests_far, design.u_far))]
        links.append(PairLink(*effs, replace(template, r_k=r_k, r_kt=r_kt)))
    return Scenario(params=params, policy=policy,
                    ests_near=ests_near, ests_far=ests_far, design=design,
                    links=tuple(links))
