"""Channel generation and SVD decomposition into subchannel gains.

A system has two source nodes (n1 and n2 antennas) and one relay (n_r
antennas). Four complex channel matrices connect them: uplinks h1r, h2r
(node -> relay) and downlinks hr1, hr2 (relay -> node). Random
realizations are drawn i.i.d. circularly-symmetric complex Gaussian with
unit variance, the standard Rayleigh-fading model.

Decomposing each downlink H_ri = U * diag(omega) * V^H turns the relay's
broadcast into parallel scalar subchannels with gains
alpha_i(k) = omega(k)^2 / sigma_i^2, which is what every optimization
routine downstream operates on.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RankZeroError

__all__ = [
    "SystemConfig",
    "ChannelSet",
    "SubchannelGains",
    "generate_channels",
    "decompose",
    "synthetic_gains",
]

# Singular values below this fraction of the largest are treated as zero.
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, power budgets (W), noise variances (W) and RNG seed (an integer >= 0)."""

    n1: int
    n2: int
    n_r: int
    p1_max: float = 1.0
    p2_max: float = 1.0
    pr_max: float = 1.0
    sigma1_sq: float = 1.0
    sigma2_sq: float = 1.0
    sigmar_sq: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n1, self.n2, self.n_r) < 1:
            raise ValueError("antenna counts must be >= 1")
        noise = (self.sigma1_sq, self.sigma2_sq, self.sigmar_sq)
        # A subnormal variance would overflow the gains it divides.
        if not all(math.isfinite(v) and v >= sys.float_info.min for v in noise):
            raise ValueError("noise variances must be finite and at least sys.float_info.min")
        budgets = (self.p1_max, self.p2_max, self.pr_max)
        if not all(math.isfinite(v) and v >= 0.0 for v in budgets):
            raise ValueError("power budgets must be finite and nonnegative")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class ChannelSet:
    """One realization of the four channel matrices.

    h1r, h2r are n_r x n_i uplinks; hr1, hr2 are n_i x n_r downlinks.
    """

    h1r: np.ndarray
    h2r: np.ndarray
    hr1: np.ndarray
    hr2: np.ndarray


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class SubchannelGains:
    """Per-direction subchannel gains for one channel realization.

    alpha1 / alpha2 are the gains of the relay->node-1 / relay->node-2
    downlinks: 1-D, nonempty, finite, strictly positive and sorted
    descending, one per nonzero singular value. v1 / v2 are the full
    n_r x n_r right singular-vector matrices that rebuild relay
    covariances from per-subchannel powers. Construction is the one place
    these properties are checked (ValueError otherwise); the water-fill
    kernels take them as a precondition. All four are stored as read-only
    copies, so no edit of the caller's arrays can undo the checks or leave
    `pooled` stale.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.v1)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.v2) != shape:
            raise ValueError("v1 and v2 must both be n_r x n_r matrices")
        for name in ("alpha1", "alpha2", "v1", "v2"):
            value = np.array(getattr(self, name), dtype=float if name.startswith("alpha") else None)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        for name, alpha in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if alpha.ndim != 1 or not 0 < alpha.size <= shape[0]:
                raise ValueError(f"{name} must be a nonempty 1-D array of at most n_r gains")
            if not (np.all(np.isfinite(alpha)) and alpha[-1] > 0.0 and np.all(alpha[:-1] >= alpha[1:])):
                raise ValueError(f"{name} must be finite, strictly positive and sorted descending")

    @property
    def n_r(self) -> int:
        return self.v1.shape[0]

    @cached_property
    def pooled(self) -> np.ndarray:
        """Both gain lists merged and re-sorted descending (read-only)."""
        pooled = np.sort(np.concatenate([self.alpha1, self.alpha2]))[::-1]
        pooled.flags.writeable = False
        return pooled


def generate_channels(config: SystemConfig, trial_index: int) -> ChannelSet:
    """Draw one channel realization, deterministic in (seed, trial_index).

    Entries are i.i.d. CN(0, 1): independent real/imaginary parts, each
    N(0, 1/2). Each trial gets its own hash-derived RNG stream, so trials
    can be evaluated in any order (or in parallel) with identical results.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial_index,))
    rng = np.random.default_rng(seq)

    def draw(rows: int, cols: int) -> np.ndarray:
        re = rng.standard_normal((rows, cols))
        im = rng.standard_normal((rows, cols))
        return (re + 1j * im) / np.sqrt(2.0)

    return ChannelSet(
        h1r=draw(config.n_r, config.n1),
        h2r=draw(config.n_r, config.n2),
        hr1=draw(config.n1, config.n_r),
        hr2=draw(config.n2, config.n_r),
    )


def _decompose_one(h: np.ndarray, sigma_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Gains and right singular vectors of one downlink."""
    _, s, vh = np.linalg.svd(h, full_matrices=True)
    if s.size == 0 or s[0] <= 0.0:
        raise RankZeroError("downlink channel has no nonzero singular value")
    kept = s >= RANK_CUTOFF * s[0]
    # An overflowing gain comes out inf, which SubchannelGains rejects.
    with np.errstate(over="ignore"):
        return s[kept] ** 2 / sigma_sq, vh.conj().T


def decompose(channels: ChannelSet, config: SystemConfig) -> SubchannelGains:
    """SVD-decompose both downlinks into sorted subchannel gains.

    Raises RankZeroError if either direction is numerically rank zero
    (caller should abort the trial), and ValueError if a gain overflows.
    """
    for name, mat, rows in (
        ("hr1", channels.hr1, config.n1),
        ("hr2", channels.hr2, config.n2),
    ):
        if mat.shape != (rows, config.n_r):
            raise ValueError(f"{name} has shape {mat.shape}, expected {(rows, config.n_r)}")
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"{name} contains non-finite entries")
    alpha1, v1 = _decompose_one(channels.hr1, config.sigma1_sq)
    alpha2, v2 = _decompose_one(channels.hr2, config.sigma2_sq)
    return SubchannelGains(alpha1=alpha1, alpha2=alpha2, v1=v1, v2=v2)


def synthetic_gains(alpha1, alpha2) -> SubchannelGains:
    """Build SubchannelGains directly from gain lists in any order (unit noise).

    Useful for hand-constructed instances and tests: the unitary factors
    are identities, so relay covariances come out diagonal.
    """
    a1 = np.sort(np.asarray(alpha1, dtype=float))[::-1]
    a2 = np.sort(np.asarray(alpha2, dtype=float))[::-1]
    eye = np.eye(max(a1.size, a2.size), dtype=complex)
    return SubchannelGains(alpha1=a1, alpha2=a2, v1=eye, v2=eye)
