"""Multiple-access phase rates and the default source strategy.

In the first time slot both source nodes transmit simultaneously to the
relay. Given transmit covariances D1, D2 the relevant log-det functionals
are the MA sum-rate

    r_ma = ln det(I + (H1r D1 H1r^H + H2r D2 H2r^H) / sigma_r^2)

and the individual uplink rates r_bar_ir with only one term inside. All
rates are in nats.

The relay optimizer needs only the three rates (SourceRates), so it works
for arbitrary source covariances; callers can build a SourceStrategy, the
rates together with the covariances that induce them, from any PSD pair
via strategy_from_covariances.
max_ma_strategy provides the simulation default: the sum-rate-maximizing
pair found by cyclic best-response water-filling (each user water-fills
against the other user's interference-plus-noise until the sum rate stops
improving).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SystemConfig
from .errors import InvalidStrategyError, NonPSDError, NoConvergenceError
from .waterfill import forward_waterfill

__all__ = [
    "SourceRates",
    "SourceStrategy",
    "logdet_identity_plus",
    "rate_ma",
    "rate_bar",
    "max_ma_strategy",
    "strategy_from_covariances",
]

PSD_TOL = 1e-9
SWEEP_GAIN_TOL = 1e-10
MAX_SWEEPS = 500


@dataclass(frozen=True)
class SourceRates:
    """MA sum rate and the two single-user uplink rates (nats).

    Rates must be finite and not below -1e-12 (round-off of a zero rate);
    they are stored as floats clamped to zero.
    """

    r_ma: float
    r_bar_1r: float
    r_bar_2r: float

    def __post_init__(self) -> None:
        for name in ("r_ma", "r_bar_1r", "r_bar_2r"):
            rate = float(getattr(self, name))
            if not (math.isfinite(rate) and rate >= -1e-12):
                raise InvalidStrategyError("source rates must be finite and nonnegative")
            object.__setattr__(self, name, max(rate, 0.0))


@dataclass(frozen=True)
class SourceStrategy(SourceRates):
    """Source covariances (watts) and the rates they induce (nats)."""

    d1: np.ndarray
    d2: np.ndarray


def logdet_identity_plus(s: np.ndarray) -> float:
    """ln det(I + S) for Hermitian PSD S.

    Cholesky of I + S for stability; falls back to clipped eigenvalues if
    the factorization fails near the PSD boundary.
    """
    s = np.asarray(s)
    m = np.eye(s.shape[0]) + 0.5 * (s + s.conj().T)
    try:
        chol = np.linalg.cholesky(m)
        return float(2.0 * np.sum(np.log(np.real(np.diag(chol)))))
    except np.linalg.LinAlgError:
        eig = np.clip(np.linalg.eigvalsh(0.5 * (s + s.conj().T)), 0.0, None)
        return float(np.sum(np.log1p(eig)))


def _check_covariance(d: np.ndarray, n: int, name: str) -> np.ndarray:
    d = np.asarray(d, dtype=complex)
    if d.shape != (n, n):
        raise ValueError(f"{name} has shape {d.shape}, expected {(n, n)}")
    herm = 0.5 * (d + d.conj().T)
    if np.linalg.eigvalsh(herm).min() < -PSD_TOL:
        raise NonPSDError(f"{name} has an eigenvalue below {-PSD_TOL}")
    return herm


def rate_ma(d1, d2, channels: ChannelSet, sigmar_sq: float) -> float:
    """MA-phase sum rate of the covariance pair, nats."""
    d1 = _check_covariance(d1, channels.h1r.shape[1], "d1")
    d2 = _check_covariance(d2, channels.h2r.shape[1], "d2")
    s = (
        channels.h1r @ d1 @ channels.h1r.conj().T
        + channels.h2r @ d2 @ channels.h2r.conj().T
    ) / sigmar_sq
    return logdet_identity_plus(s)


def rate_bar(i: int, d_i, channels: ChannelSet, sigmar_sq: float) -> float:
    """Single-user uplink rate of node i's covariance, nats."""
    if i not in (1, 2):
        raise ValueError("node index must be 1 or 2")
    h = channels.h1r if i == 1 else channels.h2r
    d_i = _check_covariance(d_i, h.shape[1], f"d{i}")
    return logdet_identity_plus(h @ d_i @ h.conj().T / sigmar_sq)


def strategy_from_covariances(d1, d2, channels: ChannelSet, sigmar_sq: float) -> SourceStrategy:
    """Package arbitrary PSD covariances with their recomputed rates."""
    return SourceStrategy(
        d1=np.asarray(d1, dtype=complex),
        d2=np.asarray(d2, dtype=complex),
        r_ma=rate_ma(d1, d2, channels, sigmar_sq),
        r_bar_1r=rate_bar(1, d1, channels, sigmar_sq),
        r_bar_2r=rate_bar(2, d2, channels, sigmar_sq),
    )


def _best_response(h: np.ndarray, other_term: np.ndarray, p_max: float, sigmar_sq: float) -> np.ndarray:
    """Single-user water-filling against fixed interference-plus-noise.

    Maximizes ln det(Z + H D H^H) over Tr(D) <= p_max with
    Z = sigma_r^2 I + other_term, by water-filling over the eigenmodes of
    the whitened channel G = Z^{-1/2} H.
    """
    n_r, n_i = h.shape
    z = sigmar_sq * np.eye(n_r) + 0.5 * (other_term + other_term.conj().T)
    chol = np.linalg.cholesky(z)
    g = np.linalg.solve(chol, h)
    gram = g.conj().T @ g
    eigvals, eigvecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    active = eigvals > max(eigvals[0], 0.0) * 1e-12
    if eigvals[0] <= 0.0 or not np.any(active):
        # Zero effective channel: spend the budget uniformly (it has no
        # effect on any rate, but keeps Tr(D) = p_max).
        return (p_max / n_i) * np.eye(n_i, dtype=complex)
    powers = np.zeros(n_i)
    powers[active] = forward_waterfill(eigvals[active], p_max).powers
    return (eigvecs * powers) @ eigvecs.conj().T


def max_ma_strategy(channels: ChannelSet, config: SystemConfig) -> SourceStrategy:
    """MA-sum-rate-maximizing source covariances at full budgets.

    Cyclic best-response water-filling; the sum rate is nondecreasing
    across sweeps and the fixed point satisfies both users' single-user
    optimality conditions. Raises NoConvergenceError after 500 sweeps
    (ill-conditioned realization; drop the trial).
    """
    sig = config.sigmar_sq
    d1 = np.zeros((config.n1, config.n1), dtype=complex)
    d2 = np.zeros((config.n2, config.n2), dtype=complex)
    previous = 0.0
    for _ in range(MAX_SWEEPS):
        d1 = _best_response(channels.h1r, channels.h2r @ d2 @ channels.h2r.conj().T, config.p1_max, sig)
        d2 = _best_response(channels.h2r, channels.h1r @ d1 @ channels.h1r.conj().T, config.p2_max, sig)
        current = rate_ma(d1, d2, channels, sig)
        if current - previous < SWEEP_GAIN_TOL:
            return strategy_from_covariances(d1, d2, channels, sig)
        previous = current
    raise NoConvergenceError(f"iterative water-filling did not settle in {MAX_SWEEPS} sweeps")
