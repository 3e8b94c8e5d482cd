"""The signal-alignment precoder built one candidate and one pair at a time,
kept apart from the library.

`nomacell.design.build_precoder` scores every antenna-selection candidate
in one stacked pass; this is the plain loop over selection matrices L and
over the pairs, with its own null-space and combining steps, so the tests
have an independent reference for the stacked pass.
"""
import itertools
import math

import numpy as np

_NULL_TOL = 1e-10
_MAX_ENUMERATION = 5040
_SUBSAMPLE = 1000


def nullspace(H_near, H_far, L):
    """(U, degenerate) of ((H_near L)^H, -(H_far L)^H) U = 0."""
    A = (H_near @ L).conj().T
    B = (H_far @ L).conj().T
    K = A.shape[0]
    _, sv, Vh = np.linalg.svd(np.hstack([A, -B]), full_matrices=True)
    degenerate = bool(sv[-1] <= _NULL_TOL * max(sv[0], 1.0))
    return Vh[K:, :].conj().T, degenerate


def combining(U, H_near_L):
    """Unit vector z maximizing |(H_near L)^H U[:N] z|."""
    if U.shape[1] == 1:
        return np.ones(1, dtype=complex)
    N = H_near_L.shape[0]
    _, _, Vh = np.linalg.svd(H_near_L.conj().T @ U[:N, :])
    return Vh[0, :].conj()


def selection_matrices(M, K):
    """One M x K selection matrix per K-subset, or per subset drawn from
    seed 0 past `_MAX_ENUMERATION` subsets; and whether it drew them."""
    if math.comb(M, K) <= _MAX_ENUMERATION:
        subsets = itertools.combinations(range(M), K)
        return [np.eye(M)[:, list(c)] for c in subsets], False
    rng = np.random.default_rng(0)
    drawn = {tuple(sorted(rng.permutation(M)[:K])) for _ in range(_SUBSAMPLE)}
    return [np.eye(M)[:, list(c)] for c in sorted(drawn)], True


def build_precoder(channels, params):
    """(V, u_near, u_far, L, gamma, flags) of the candidate with the largest
    smallest gain, ties to the lowest candidate index."""
    K = len(channels)
    candidates, subsampled = selection_matrices(params.M, K)
    best = None
    for L in candidates:
        filters_n, filters_f, gs, degenerate = [], [], [], False
        for H_near, H_far in channels:
            U, deg = nullspace(H_near, H_far, L)
            degenerate |= deg
            stacked = U @ combining(U, H_near @ L)
            u_k, u_kt = stacked[:params.N], stacked[params.N:]
            filters_n.append(u_k)
            filters_f.append(u_kt)
            gs.append((H_near @ L).conj().T @ u_k)
        G = np.column_stack(gs)
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            continue
        Ginv = np.linalg.inv(G)
        gamma = 1.0 / np.diag((Ginv @ Ginv.conj().T).real)
        if best is None or gamma.min() > best[0]:
            best = (gamma.min(), L, np.array(filters_n), np.array(filters_f),
                    G, gamma, degenerate)
    if best is None:
        raise ValueError("all antenna-selection candidates gave a singular "
                         "aligned channel")
    _, L, u_near, u_far, G, gamma, degenerate = best
    V = L @ (np.linalg.inv(G).conj().T * np.sqrt(gamma))
    flags = (("selection_subsampled",) if subsampled else ()) + \
        (("degenerate_null_space",) if degenerate else ())
    return V, u_near, u_far, L, gamma, flags
