"""Scenario parameters and the imperfect-CSI channel model.

All powers are linear (watts); dB conversions belong to the config layer.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkParams",
    "ChannelEstimate",
    "PairConfig",
    "exponential_covariance",
    "sample_error_matrix",
    "sample_channel_matrix",
    "channel_k_factor",
    "error_variance_for_k_factor",
]

_PSD_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class NetworkParams:
    """Global scenario description of the small-cell network.

    Intensities are per m^2, powers linear watts, distances meters.
    `c` is the cell-geometry constant of the Rayleigh approximation to
    the serving-distance distribution (5/4 for Poisson-Voronoi cells).
    """

    lambda_b: float = 1e-5      # BS intensity
    alpha: float = 3.5          # path-loss exponent, > 2
    P: float = 0.1              # per-stream transmit power (20 dBm)
    rho_I: float = 10 ** 1.5 / 1000.0   # interferer power (15 dBm)
    sigma2: float = 10 ** -9.9 / 1000.0  # noise power (-99 dBm)
    M: int = 3                  # transmit antennas
    N: int = 2                  # receive antennas
    K: int = 2                  # user pairs
    c: float = 1.25

    def __post_init__(self):
        # `not x > y` rather than `x <= y`: the comparisons also reject NaN.
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.K >= 1:
            raise ValueError(f"K must be at least 1, got {self.K}")
        if self.K > min(self.M, self.N):
            raise ValueError(f"K={self.K} exceeds min(M, N)={min(self.M, self.N)}")
        for name in ("lambda_b", "P", "rho_I", "sigma2"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")

    def path_loss(self, d):
        """Power path loss d^-alpha."""
        return np.asarray(d, dtype=float) ** (-self.alpha)


def exponential_covariance(dim: int, kappa: float) -> np.ndarray:
    """Exponential correlation profile (kappa^|i-j|), unit diagonal, PSD."""
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    idx = np.arange(dim)
    return (kappa ** np.abs(idx[:, None] - idx[None, :])).astype(complex)


@functools.lru_cache(maxsize=16)
def _shared_sqrt(data: bytes, dim: int) -> np.ndarray:
    """Read-only `_hermitian_sqrt` of the dim x dim complex matrix with
    these bytes, computed once per distinct matrix: every estimate of a
    scenario has the same R_t and R_r."""
    root = _hermitian_sqrt(np.frombuffer(data, dtype=complex).reshape(dim, dim))
    root.flags.writeable = False
    return root


def _hermitian_sqrt(R: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition with clamping at 0.

    Raises if an eigenvalue is more negative than the PSD tolerance.
    """
    w, Q = np.linalg.eigh(R)
    scale = max(abs(w[-1]), 1.0)
    if w[0] < -_PSD_TOL * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.conj().T


@dataclass(frozen=True, slots=True)
class ChannelEstimate:
    """Known channel part with the Kronecker error statistics.

    `H_hat` is N x M; `R_t` (M x M) and `R_r` (N x N) are Hermitian PSD
    with unit diagonal under the exponential profile; `sigma_h2` is the
    per-entry error variance of the white inner factor.
    """

    H_hat: np.ndarray
    R_t: np.ndarray
    R_r: np.ndarray
    sigma_h2: float
    _R_t_sqrt: np.ndarray = field(init=False, repr=False)
    _R_r_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sigma_h2 >= 0:
            raise ValueError("sigma_h2 must be nonnegative")
        N, M = self.H_hat.shape
        if self.R_t.shape != (M, M) or self.R_r.shape != (N, N):
            raise ValueError("covariance shapes inconsistent with H_hat")
        for name in ("H_hat", "R_t", "R_r"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name, R in (("_R_t_sqrt", self.R_t), ("_R_r_sqrt", self.R_r)):
            object.__setattr__(self, name, _shared_sqrt(R.tobytes(), len(R)))

    @property
    def shape(self):
        return self.H_hat.shape


def sample_error_matrix(est: ChannelEstimate, rng: np.random.Generator,
                        size: int | None = None) -> np.ndarray:
    """Draw Kronecker-correlated estimation errors R_r^{1/2} E_w R_t^{1/2}.

    vec(E_w) is i.i.d. circularly-symmetric complex Gaussian with variance
    sigma_h2 per entry.  With `size` given, returns a (size, N, M) stack.
    """
    N, M = est.shape
    shape = (N, M) if size is None else (size, N, M)
    if est.sigma_h2 == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = math.sqrt(est.sigma_h2 / 2.0)
    Ew = rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)
    return est._R_r_sqrt @ Ew @ est._R_t_sqrt


def sample_channel_matrix(N: int, M: int, norm2: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Draw a known channel part: i.i.d. CSCG entries rescaled to a fixed
    squared Frobenius norm."""
    H = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
    return H * math.sqrt(norm2) / np.linalg.norm(H)


def channel_k_factor(est: ChannelEstimate) -> float:
    """Power ratio of the known channel part to the estimation error."""
    if est.sigma_h2 == 0.0:
        return math.inf
    denom = est.sigma_h2 * np.trace(est.R_t).real * np.trace(est.R_r).real
    return float(np.linalg.norm(est.H_hat) ** 2 / denom)


def error_variance_for_k_factor(k_factor: float, h_norm2: float,
                                R_t: np.ndarray, R_r: np.ndarray) -> float:
    """Invert the K-factor definition to get sigma_h2 for a target quality."""
    if not k_factor > 0:
        raise ValueError("k_factor must be positive")
    return float(h_norm2 / (k_factor * np.trace(R_t).real * np.trace(R_r).real))


@dataclass(frozen=True, slots=True)
class PairConfig:
    """Per-pair NOMA configuration: power split, target rates, link geometry.

    `beta_k2` is the near user's power coefficient squared; the far user
    gets 1 - beta_k2.  Ranking orders index the distance-ordered users of
    the cell (near rank must precede far rank).
    """

    beta_k2: float = 0.3
    R_k: float = 1.0            # near-user target rate, bps/Hz
    R_kt: float = 0.5           # far-user target rate, bps/Hz
    d_k: float = 50.0           # near link distance, m
    d_kt: float = 125.0         # far link distance, m
    r_k: int = 1                # near-user ranking order
    r_kt: int = 4               # far-user ranking order

    def __post_init__(self):
        if not 0.0 < self.beta_k2 < 1.0:
            raise ValueError("beta_k2 must lie strictly inside (0, 1)")
        # 2^R sets every SINR threshold and must stay a finite float; the
        # comparison also rejects NaN.
        if not all(0.0 <= R < 1024.0 for R in (self.R_k, self.R_kt)):
            raise ValueError("target rates must lie in [0, 1024) bps/Hz")
        if not (self.d_k > 0 and self.d_kt > 0):
            raise ValueError("distances must be positive")
        if self.r_k >= self.r_kt:
            raise ValueError("near-user rank must be smaller than far-user rank")

    @property
    def beta_kt2(self) -> float:
        return 1.0 - self.beta_k2

    @property
    def feasible(self) -> bool:
        """Rate split admits a nonzero far-user success probability."""
        return self.beta_k2 * (2.0 ** self.R_kt - 1.0) < 1.0

    def with_rates(self, R_k: float | None = None, R_kt: float | None = None) -> "PairConfig":
        return PairConfig(self.beta_k2,
                          self.R_k if R_k is None else R_k,
                          self.R_kt if R_kt is None else R_kt,
                          self.d_k, self.d_kt, self.r_k, self.r_kt)
