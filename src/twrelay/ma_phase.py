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
the same, bit for bit, in any batch. A sweep's sum rate comes from node 2's
best response, whose whitening matrix Z2 = sigma_r^2 I + H1r D1 H1r^H is
already factored as L2 L2^H:

    r_ma = 2 sum ln diag(L2) + sum_k log1p(lambda_k p_k) - n_r ln sigma_r^2

over node 2's whitened eigenvalues lambda_k and powers p_k, with no third
factorization; an instance converges when a sweep gains less than
SWEEP_GAIN_TOL nats. Best responses are V diag(p) V^H with
p >= 0, PSD by construction: the sweeps skip the PSD check, and each
converged pair is checked once, by the helper that gives
strategy_from_covariances (and so rate_ma and rate_bar) its rates. An
instance whose interference-plus-noise matrix does not factor, or whose
rates come out inconsistent, leaves the stack without a strategy. Budgets
and noise variances are checked at entry, by waterfill._checked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SystemConfig
from .errors import InvalidStrategyError, NonPSDError, NoConvergenceError
from .waterfill import _checked, _level, _powers, _prepared

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

_SINGULAR = (
    "iterative water-filling stopped: the interference-plus-noise matrix "
    "sigma_r^2 I + H D H^H is numerically singular"
)
_UNRELIABLE = (
    "iterative water-filling stopped: its rates break "
    "max(r_bar_1r, r_bar_2r) <= r_ma <= r_bar_1r + r_bar_2r (log-dets lost to round-off)"
)


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


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class SourceStrategy(SourceRates):
    """Source covariances (watts) and the rates they induce (nats).

    `sweeps` is the sweep at which max_ma_strategies converged for this
    pair and `last_gain` that sweep's sum-rate gain in nats (below
    SWEEP_GAIN_TOL); a pair from strategy_from_covariances has 0 and NaN.
    """

    d1: np.ndarray
    d2: np.ndarray
    sweeps: int = 0
    last_gain: float = math.nan

    # Not SourceRates' value equality, which would compare the rates alone.
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _hermitian(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _ct(a))


def _cholesky(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of Hermitian matrices, and which failed to factor.

    A matrix that fails gets the identity as a placeholder factor. Each
    factor has the bits of its matrix factored alone.
    """
    try:
        return np.linalg.cholesky(stack), np.zeros(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        if len(stack) > 1:  # find the failing matrices one by one
            parts = [_cholesky(one[np.newaxis]) for one in stack]
            return np.concatenate([c for c, _ in parts]), np.concatenate([f for _, f in parts])
        return np.eye(stack.shape[-1], dtype=stack.dtype)[np.newaxis], np.ones(1, dtype=bool)


def _logdet_identity_plus(s: np.ndarray) -> np.ndarray:
    """ln det(I + S) of each Hermitian PSD matrix of the stack s, (N, n, n) -> (N,).

    Cholesky of I + S for stability; an instance whose factorization fails
    near the PSD boundary falls back to clipped eigenvalues.
    """
    chol, failed = _cholesky(np.eye(s.shape[-1]) + _hermitian(s))
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
    if failed.any():
        eig = np.clip(np.linalg.eigvalsh(_hermitian(s[failed])), 0.0, None)
        logdet[failed] = np.sum(np.log1p(eig), axis=-1)
    return logdet


def logdet_identity_plus(s: np.ndarray) -> float:
    """ln det(I + S) for Hermitian PSD S.

    Cholesky of I + S for stability; falls back to clipped eigenvalues if
    the factorization fails near the PSD boundary.
    """
    return float(_logdet_identity_plus(np.asarray(s)[np.newaxis])[0])


def _pair_rates(h1, h2, d1, d2, sig) -> np.ndarray:
    """r_ma, r_bar_1r, r_bar_2r of each covariance pair of a stack, (3, N).

    Takes stacks h1 (N, n_r, n1), h2 (N, n_r, n2), d1 (N, n1, n1),
    d2 (N, n2, n2) and sig (N, 1, 1). Each pair is PSD-checked once.
    """
    terms = []
    for name, h, d in (("d1", h1, d1), ("d2", h2, d2)):
        herm = _hermitian(d)
        eig = np.linalg.eigvalsh(herm)
        if (eig.min(axis=-1) < -PSD_TOL * np.abs(eig).max(axis=-1)).any():
            raise NonPSDError(f"{name} has an eigenvalue below {-PSD_TOL} times its largest magnitude")
        terms.append(h @ herm @ _ct(h))
    t1, t2 = terms
    # The three stacks in one call; each matrix is factored alone.
    s = np.stack([t1 + t2, t1, t2]) / sig
    return _logdet_identity_plus(s.reshape(-1, *s.shape[2:])).reshape(3, -1)


def strategy_from_covariances(d1, d2, channels: ChannelSet, sigmar_sq: float) -> SourceStrategy:
    """Package arbitrary PSD covariances with their recomputed rates.

    Raises ValueError if the relay noise variance breaks the noise rule
    (finite and at least sys.float_info.min) or a covariance has the wrong
    shape, and NonPSDError if a covariance is not PSD.
    """
    sig = _checked(sigmar_sq, "the relay noise variance", sys.float_info.min).reshape(1, 1, 1)
    d1, d2 = np.asarray(d1, dtype=complex), np.asarray(d2, dtype=complex)
    for name, d, h in (("d1", d1, channels.h1r), ("d2", d2, channels.h2r)):
        if d.shape != (h.shape[1],) * 2:
            raise ValueError(f"{name} has shape {d.shape}, expected {(h.shape[1],) * 2}")
    r_ma, r_bar_1r, r_bar_2r = _pair_rates(
        channels.h1r[np.newaxis], channels.h2r[np.newaxis], d1[np.newaxis], d2[np.newaxis], sig
    )[:, 0]
    return SourceStrategy(d1=d1, d2=d2, r_ma=r_ma, r_bar_1r=r_bar_1r, r_bar_2r=r_bar_2r)


def rate_ma(d1, d2, channels: ChannelSet, sigmar_sq: float) -> float:
    """MA-phase sum rate of the covariance pair, nats."""
    return strategy_from_covariances(d1, d2, channels, sigmar_sq).r_ma


def rate_bar(i: int, d_i, channels: ChannelSet, sigmar_sq: float) -> float:
    """Single-user uplink rate of node i's covariance, nats."""
    if i not in (1, 2):
        raise ValueError("node index must be 1 or 2")
    pair = [np.zeros((h.shape[1],) * 2) for h in (channels.h1r, channels.h2r)]
    pair[i - 1] = d_i
    strategy = strategy_from_covariances(*pair, channels, sigmar_sq)
    return (strategy.r_bar_1r, strategy.r_bar_2r)[i - 1]


def _best_response(h: np.ndarray, z: np.ndarray, p_max: np.ndarray, objective: bool = False) -> tuple:
    """Single-user water-filling of each instance against fixed interference-plus-noise.

    Maximizes ln det(Z + H D H^H) over Tr(D) <= p_max by water-filling over
    the eigenmodes of the whitened channel G = L^{-1} H, where Z = L L^H.
    Takes stacks h (N, n_r, n_i), z (N, n_r, n_r) Hermitian and p_max (N,).
    Returns D (N, n_i, n_i); with `objective`, the maximum
    ln det(Z + H D H^H) = 2 sum ln diag(L) + sum_k log1p(lambda_k p_k) over
    G's eigenvalues lambda_k and the powers p_k of D (N,), else None; and
    which instances' Z is numerically singular (their D and ln det are
    meaningless).
    """
    n_i = h.shape[2]
    chol, singular = _cholesky(z)
    g = np.linalg.solve(chol, h)
    eigvals, eigvecs = np.linalg.eigh(_hermitian(_ct(g) @ g))
    eigvals, eigvecs = eigvals[:, ::-1], eigvecs[..., ::-1]  # descending
    active = eigvals > np.maximum(eigvals[:, :1], 0.0) * 1e-12
    # Water-fill each row over its active modes, a descending prefix; the
    # others are padding (gain 0). The budgets were checked at entry.
    prepared = _prepared(np.where(active, eigvals, 0.0))
    level = _level(prepared, p_max)
    # Zero effective channel (top eigenvalue not positive): its level is
    # +inf; it gets zero powers here, then spends the budget uniformly
    # (that has no effect on any rate, but keeps Tr(D) = p_max).
    flat = ~active[:, 0]
    level[flat] = 0.0
    powers = _powers(prepared[0], level)
    d = (eigvecs * powers[:, np.newaxis, :]) @ _ct(eigvecs)
    if flat.any():
        d[flat] = (p_max[flat, np.newaxis, np.newaxis] / n_i) * np.eye(n_i)
        powers[flat] = p_max[flat, np.newaxis] / n_i
    if not objective:
        return d, None, singular
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)
    return d, logdet + np.log1p(eigvals * powers).sum(axis=-1), singular


def _strategies(h1r, h2r, p1_max, p2_max, sigmar_sq) -> list:
    """The engine: per instance a SourceStrategy, or the message of why there is none."""
    h1r = np.ascontiguousarray(h1r, dtype=complex)
    h2r = np.ascontiguousarray(h2r, dtype=complex)
    n, n_r, n1 = h1r.shape
    n2 = h2r.shape[2]
    if not n:
        return []
    p1, p2, sig = (np.zeros(n) + v for v in (p1_max, p2_max, sigmar_sq))
    if not (np.isfinite(h1r).all() and np.isfinite(h2r).all()):
        raise ValueError("uplinks must be finite")
    _checked((p1, p2), "power budgets")
    _checked(sig, "the relay noise variance", sys.float_info.min)
    sig_all = sig[:, np.newaxis, np.newaxis]
    d1_out = np.empty((n, n1, n1), complex)
    d2_out = np.empty((n, n2, n2), complex)
    rates = np.empty((3, n))
    sweeps = np.zeros(n, dtype=int)
    last_gain = np.full(n, np.nan)
    failure = np.full(n, f"iterative water-filling did not settle in {MAX_SWEEPS} sweeps", dtype=object)
    # Live instances: index, uplinks and their conjugates, budgets, the
    # noise sigma_r^2 I and n_r ln sigma_r^2, the last d2 and the last sum rate.
    live = (
        np.arange(n), h1r, h1r.conj(), h2r, h2r.conj(), p1, p2,
        sig_all * np.eye(n_r), n_r * np.log(sig),
        np.zeros((n, n2, n2), complex), np.zeros(n),
    )
    for sweep in range(1, MAX_SWEEPS + 1):
        idx, h1, h1c, h2, h2c, p1, p2, noise, log_noise, d2, previous = live
        h1h, h2h = h1c.swapaxes(1, 2), h2c.swapaxes(1, 2)
        d1, _, singular1 = _best_response(h1, noise + _hermitian(h2 @ d2 @ h2h), p1)
        # Node 2's objective ln det(sigma_r^2 I + S1 + S2) is the sum rate
        # plus n_r ln sigma_r^2: no third factorization.
        d2, logdet, singular2 = _best_response(h2, noise + _hermitian(h1 @ d1 @ h1h), p2, objective=True)
        singular = singular1 | singular2
        current = logdet - log_noise
        gain = current - previous
        done = (gain < SWEEP_GAIN_TOL) & ~singular
        live = (idx, h1, h1c, h2, h2c, p1, p2, noise, log_noise, d2, current)
        leaving = done | singular
        if not leaving.any():
            continue
        failure[idx[singular]] = _SINGULAR
        k = idx[done]
        d1_out[k], d2_out[k], sweeps[k] = d1[done], d2[done], sweep
        last_gain[k] = gain[done]
        if leaving.all():
            break
        keep = ~leaving
        live = tuple(a[keep] for a in live)
    # The converged pairs' rates, in one call (each matrix is factored
    # alone, so the bits do not depend on which pairs share the call).
    k = np.flatnonzero(sweeps)
    r_ma, r1, r2 = rates[:, k] = _pair_rates(h1r[k], h2r[k], d1_out[k], d2_out[k], sig_all[k])
    # r_ma is at least either single-user rate and at most their sum;
    # beyond round-off, the log-dets have lost their accuracy.
    valid = (np.maximum(r1, r2) - SWEEP_GAIN_TOL <= r_ma) & (r_ma <= r1 + r2 + SWEEP_GAIN_TOL)
    failure[k] = np.where(valid, None, _UNRELIABLE)
    # Copies, so that each strategy owns its matrices and the stacks are freed.
    return [
        failure[k] or SourceStrategy(
            d1=d1_out[k].copy(), d2=d2_out[k].copy(), r_ma=rates[0, k], r_bar_1r=rates[1, k],
            r_bar_2r=rates[2, k], sweeps=int(sweeps[k]), last_gain=float(last_gain[k]),
        )
        for k in range(n)
    ]


def max_ma_strategies(h1r, h2r, p1_max, p2_max, sigmar_sq) -> list[SourceStrategy | None]:
    """MA-sum-rate-maximizing source covariances of N instances at full budgets.

    h1r, h2r are stacked uplinks, (N, n_r, n1) and (N, n_r, n2); the budgets
    p1_max, p2_max and the relay noise variance sigmar_sq (watts) are per
    instance, (N,), or one for all. Returns one SourceStrategy per instance,
    in order, its `sweeps` the sweep at which it converged, or None for an
    ill-conditioned realization (drop the trial): one still improving after
    MAX_SWEEPS sweeps, one whose interference-plus-noise matrix is
    numerically singular, or one whose rates break
    max(r_bar_1r, r_bar_2r) <= r_ma <= r_bar_1r + r_bar_2r beyond round-off.
    The sum rate is nondecreasing across sweeps and the fixed point
    satisfies both users' single-user optimality conditions. Raises
    ValueError on a non-finite uplink, a negative or non-finite budget or a
    noise variance that is non-finite or below sys.float_info.min, and
    NonPSDError if a converged pair is not PSD.
    """
    return [None if isinstance(s, str) else s for s in _strategies(h1r, h2r, p1_max, p2_max, sigmar_sq)]


def max_ma_strategy(channels: ChannelSet, config: SystemConfig) -> SourceStrategy:
    """MA-sum-rate-maximizing source covariances at full budgets.

    The N=1 view of max_ma_strategies. Raises NoConvergenceError where that
    returns None, with the reason.
    """
    (strategy,) = _strategies(
        channels.h1r[np.newaxis], channels.h2r[np.newaxis],
        config.p1_max, config.p2_max, config.sigmar_sq,
    )
    if isinstance(strategy, str):
        raise NoConvergenceError(strategy)
    return strategy
