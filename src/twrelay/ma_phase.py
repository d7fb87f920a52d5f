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

max_ma_strategies provides the simulation default, the sum-rate-maximizing
pair, by cyclic best-response water-filling (Yu, Rhee, Boyd & Cioffi,
IEEE T-IT 2004) over N stacked instances of equal antenna counts at once;
max_ma_strategy is its N=1 view. Every step acts on each matrix alone and
each instance leaves the stack at its own converged sweep, so a result is
the same, bit for bit, in any batch. Best responses are V diag(p) V^H with
p >= 0, PSD by construction: the sweeps skip the PSD check, and each
returned pair is checked once, as strategy_from_covariances checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SystemConfig
from .errors import InvalidStrategyError, NonPSDError, NoConvergenceError
from .waterfill import forward_level

__all__ = [
    "SourceRates",
    "SourceStrategy",
    "logdet_identity_plus",
    "rate_ma",
    "rate_bar",
    "max_ma_strategy",
    "max_ma_strategies",
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
    """Source covariances (watts) and the rates they induce (nats).

    `sweeps` is the sweep at which max_ma_strategies converged for this
    pair, and 0 for a pair from strategy_from_covariances.
    """

    d1: np.ndarray
    d2: np.ndarray
    sweeps: int = 0


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _hermitian(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _ct(a))


def _logdet_identity_plus(s: np.ndarray) -> np.ndarray:
    """ln det(I + S) of each Hermitian PSD matrix of the stack s, (N, n, n) -> (N,).

    Cholesky of I + S for stability; an instance whose factorization fails
    near the PSD boundary falls back to clipped eigenvalues.
    """
    m = np.eye(s.shape[-1]) + _hermitian(s)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if len(s) > 1:  # find the failing instances one by one
            return np.concatenate([_logdet_identity_plus(one[np.newaxis]) for one in s])
        eig = np.clip(np.linalg.eigvalsh(_hermitian(s)), 0.0, None)
        return np.sum(np.log1p(eig), axis=-1)
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def logdet_identity_plus(s: np.ndarray) -> float:
    """ln det(I + S) for Hermitian PSD S.

    Cholesky of I + S for stability; falls back to clipped eigenvalues if
    the factorization fails near the PSD boundary.
    """
    return float(_logdet_identity_plus(np.asarray(s)[np.newaxis])[0])


def _not_psd(herm: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of a stack has an eigenvalue below -PSD_TOL * max |eigenvalue|."""
    eig = np.linalg.eigvalsh(herm)
    return eig.min(axis=-1) < -PSD_TOL * np.abs(eig).max(axis=-1)


def _check_covariance(d: np.ndarray, n: int, name: str) -> np.ndarray:
    d = np.asarray(d, dtype=complex)
    if d.shape != (n, n):
        raise ValueError(f"{name} has shape {d.shape}, expected {(n, n)}")
    herm = _hermitian(d)
    if _not_psd(herm):
        raise NonPSDError(f"{name} has an eigenvalue below {-PSD_TOL} times its largest magnitude")
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


def _best_response(h: np.ndarray, other_term: np.ndarray, p_max: np.ndarray, sigmar_sq: np.ndarray) -> np.ndarray:
    """Single-user water-filling of each instance against fixed interference-plus-noise.

    Maximizes ln det(Z + H D H^H) over Tr(D) <= p_max with
    Z = sigma_r^2 I + other_term, by water-filling over the eigenmodes of
    the whitened channel G = Z^{-1/2} H. Takes stacks h (N, n_r, n_i) and
    other_term (N, n_r, n_r), p_max (N,) and sigmar_sq (N, 1, 1); returns
    D (N, n_i, n_i).
    """
    n_i = h.shape[2]
    z = sigmar_sq * np.eye(h.shape[1]) + _hermitian(other_term)
    g = np.linalg.solve(np.linalg.cholesky(z), h)
    eigvals, eigvecs = np.linalg.eigh(_hermitian(_ct(g) @ g))
    eigvals, eigvecs = eigvals[:, ::-1], eigvecs[..., ::-1]  # descending
    active = eigvals > np.maximum(eigvals[:, :1], 0.0) * 1e-12
    # Water-fill each row over its active modes, a descending prefix; the
    # others are padding (gain 0). A row with no active mode comes out NaN
    # and is replaced below.
    gains = np.where(active, eigvals, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.maximum(forward_level(gains, p_max)[:, np.newaxis] - 1.0 / gains, 0.0)
    d = (eigvecs * powers[:, np.newaxis, :]) @ _ct(eigvecs)
    # Zero effective channel (top eigenvalue not positive): spend the
    # budget uniformly (it has no effect on any rate, but keeps Tr(D) = p_max).
    flat = ~active[:, 0]
    if flat.any():
        d[flat] = (p_max[flat, np.newaxis, np.newaxis] / n_i) * np.eye(n_i)
    return d


def max_ma_strategies(h1r, h2r, p1_max, p2_max, sigmar_sq) -> list[SourceStrategy | None]:
    """MA-sum-rate-maximizing source covariances of N instances at full budgets.

    h1r, h2r are stacked uplinks, (N, n_r, n1) and (N, n_r, n2); the budgets
    p1_max, p2_max and the relay noise variance sigmar_sq (watts) are per
    instance, (N,), or one for all. Returns one SourceStrategy per instance,
    in order, its `sweeps` the sweep at which it converged, or None for an
    instance still improving after MAX_SWEEPS sweeps (ill-conditioned
    realization; drop the trial). The sum rate is nondecreasing across
    sweeps and the fixed point satisfies both users' single-user optimality
    conditions. Raises NonPSDError if a converged pair is not PSD.
    """
    h1 = np.ascontiguousarray(h1r, dtype=complex)
    h2 = np.ascontiguousarray(h2r, dtype=complex)
    n, _, n1 = h1.shape
    n2 = h2.shape[2]
    if not n:
        return []
    p1, p2, sig = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (p1_max, p2_max, sigmar_sq))
    d1_out = np.empty((n, n1, n1), complex)
    d2_out = np.empty((n, n2, n2), complex)
    rates = np.empty((3, n))
    sweeps = np.zeros(n, dtype=int)
    # Live instances: index, uplinks and their conjugates, budgets, noise,
    # the last d2 and the last sum rate.
    live = (
        np.arange(n), h1, h1.conj(), h2, h2.conj(), p1, p2, sig[:, np.newaxis, np.newaxis],
        np.zeros((n, n2, n2), complex), np.zeros(n),
    )
    for sweep in range(1, MAX_SWEEPS + 1):
        idx, h1, h1c, h2, h2c, p1, p2, sig, d2, previous = live
        h1h, h2h = h1c.swapaxes(1, 2), h2c.swapaxes(1, 2)
        d1 = _best_response(h1, h2 @ d2 @ h2h, p1, sig)
        d2 = _best_response(h2, h1 @ d1 @ h1h, p2, sig)
        herm1, herm2 = _hermitian(d1), _hermitian(d2)
        current = _logdet_identity_plus((h1 @ herm1 @ h1h + h2 @ herm2 @ h2h) / sig)
        done = current - previous < SWEEP_GAIN_TOL
        live = (idx, h1, h1c, h2, h2c, p1, p2, sig, d2, current)
        if not done.any():
            continue
        k = idx[done]
        d1_out[k], d2_out[k], sweeps[k], rates[0, k] = d1[done], d2[done], sweep, current[done]
        for row, h, herm in ((1, h1[done], herm1[done]), (2, h2[done], herm2[done])):
            if _not_psd(herm).any():
                raise NonPSDError(f"d{row} has an eigenvalue below {-PSD_TOL} times its largest magnitude")
            rates[row, k] = _logdet_identity_plus(h @ herm @ _ct(h) / sig[done])
        if done.all():
            break
        live = tuple(a[~done] for a in live)
    # Copies, so that each strategy owns its matrices and the stacks are freed.
    return [
        SourceStrategy(
            d1=d1_out[k].copy(), d2=d2_out[k].copy(), r_ma=rates[0, k], r_bar_1r=rates[1, k],
            r_bar_2r=rates[2, k], sweeps=int(sweeps[k]),
        ) if sweeps[k] else None
        for k in range(n)
    ]


def max_ma_strategy(channels: ChannelSet, config: SystemConfig) -> SourceStrategy:
    """MA-sum-rate-maximizing source covariances at full budgets.

    The N=1 view of max_ma_strategies. Raises NoConvergenceError after
    MAX_SWEEPS sweeps (ill-conditioned realization; drop the trial).
    """
    (strategy,) = max_ma_strategies(
        channels.h1r[np.newaxis], channels.h2r[np.newaxis],
        config.p1_max, config.p2_max, config.sigmar_sq,
    )
    if strategy is None:
        raise NoConvergenceError(f"iterative water-filling did not settle in {MAX_SWEEPS} sweeps")
    return strategy
