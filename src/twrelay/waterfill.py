"""Scalar water-filling kernels over subchannel gain lists.

All rates are in nats and all powers and water levels in watts. A "level"
is the water level 1/lambda: subchannel k with gain alpha(k) carries power
p(k) = (level - 1/alpha(k))^+ and rate ln(alpha(k) * level) when active.

The kernels come in two directions: forward (power budget -> level) and
inverse (target rate -> level). Both are exact closed forms obtained by
scanning active-set sizes over the sorted gain list, not by bisection.
A subchannel whose inverse gain equals the level exactly is counted as
active with zero power; this keeps the active-set size deterministic and
does not change any power or rate.

Precondition: every gain list is 1-D, nonempty, finite, strictly positive
and sorted descending. The kernels do not re-check it on each call;
``channel.SubchannelGains`` checks it once, when an instance is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevelAllocation",
    "rate_of_level",
    "power_of_level",
    "forward_level",
    "forward_waterfill",
    "inverse_waterfill",
]

# Largest ln(level) whose exp is a finite float.
_MAX_LOG_LEVEL = math.log(sys.float_info.max)


@dataclass(frozen=True)
class LevelAllocation:
    """Water-filling allocation induced by a single water level.

    Attributes
    ----------
    level : float
        Water level 1/lambda in watts.
    powers : np.ndarray
        Per-subchannel powers in watts, aligned with the gain list.
    rate : float
        Sum rate over active subchannels, nats.
    total_power : float
        Sum of powers, watts.
    """

    level: float
    powers: np.ndarray
    rate: float
    total_power: float


def rate_of_level(gains, level):
    """Rate in nats of water level(s) `level` over `gains`.

    Sum over active subchannels of ln(alpha(k) * level); a subchannel is
    active when alpha(k) * level > 1. Accepts a scalar or array of levels
    and returns a matching shape. Nondecreasing in the level.
    """
    gains = np.asarray(gains, dtype=float)
    level = np.asarray(level, dtype=float)
    rate = np.sum(np.log(np.maximum(level[..., np.newaxis] * gains, 1.0)), axis=-1)
    return float(rate) if rate.ndim == 0 else rate


def power_of_level(gains, level):
    """Total power in watts consumed by water level(s) `level` over `gains`.

    Sum over subchannels of (level - 1/alpha(k))^+. Accepts a scalar or
    array of levels. Piecewise linear, convex, nondecreasing in the level.
    """
    gains = np.asarray(gains, dtype=float)
    level = np.asarray(level, dtype=float)
    power = np.sum(np.maximum(level[..., np.newaxis] - 1.0 / gains, 0.0), axis=-1)
    return float(power) if power.ndim == 0 else power


def forward_level(gains, budget):
    """Water level(s) that spend exactly `budget` watts over `gains`.

    Closed form: with m subchannels active the level is
    (budget + sum_{k<=m} 1/alpha(k)) / m, and m is found from the
    activation thresholds of the sorted inverse gains. Accepts a scalar
    or array of budgets and returns a matching shape.
    """
    gains = np.asarray(gains, dtype=float)
    budget = np.asarray(budget, dtype=float)
    if np.any(budget < 0.0):
        raise ValueError("budget must be nonnegative")
    inv = 1.0 / gains  # ascending since gains are descending
    csum = np.cumsum(inv)
    m_all = np.arange(1, inv.size + 1, dtype=float)
    # Power spent when the level reaches 1/alpha(m): (m-1)*inv[m] - csum[m-1].
    activation = m_all * inv - csum
    m = np.searchsorted(activation, budget, side="right")
    m = np.maximum(m, 1)
    level = (budget + csum[m - 1]) / m
    return float(level) if level.ndim == 0 else level


def _allocation(gains: np.ndarray, level: float) -> LevelAllocation:
    powers = np.maximum(level - 1.0 / gains, 0.0)
    return LevelAllocation(
        level=float(level),
        powers=powers,
        rate=rate_of_level(gains, level),
        total_power=float(np.sum(powers)),
    )


def forward_waterfill(gains, budget: float) -> LevelAllocation:
    """Rate-maximizing allocation of `budget` watts over `gains`.

    Parameters
    ----------
    gains : array_like
        Subchannel gains in 1/watts, sorted descending, strictly positive.
    budget : float
        Total power to spend, watts; spent exactly.

    Returns
    -------
    LevelAllocation
        The unique allocation with power_of_level(gains, level) == budget.
        A zero budget yields level 1/alpha_max and all-zero powers.
    """
    gains = np.asarray(gains, dtype=float)
    return _allocation(gains, forward_level(gains, float(budget)))


def inverse_waterfill(gains, target_rate: float) -> LevelAllocation:
    """Minimum-power allocation over `gains` achieving `target_rate` nats.

    Parameters
    ----------
    gains : array_like
        Subchannel gains in 1/watts, sorted descending, strictly positive.
    target_rate : float
        Rate to achieve, nats; achieved exactly.

    Returns
    -------
    LevelAllocation
        The unique allocation with rate_of_level(gains, level) ==
        target_rate: with m subchannels active,
        ln(level) = (target_rate - sum_{k<=m} ln alpha(k)) / m.
        A zero target yields level 1/alpha_max and all-zero powers.

    Raises
    ------
    ValueError
        If target_rate is negative or non-finite, or its level overflows.
    """
    gains = np.asarray(gains, dtype=float)
    target_rate = float(target_rate)
    if not (target_rate >= 0.0 and math.isfinite(target_rate)):
        raise ValueError("target_rate must be finite and nonnegative")
    log_inv = -np.log(gains)  # ascending
    csum = np.cumsum(log_inv)
    m_all = np.arange(1, gains.size + 1, dtype=float)
    # Rate accumulated when the level reaches 1/alpha(m).
    activation = m_all * log_inv - csum
    m = int(np.searchsorted(activation, target_rate, side="right"))
    m = max(m, 1)
    log_level = (target_rate + csum[m - 1]) / m
    if log_level > _MAX_LOG_LEVEL:
        raise ValueError("target_rate needs a water level beyond the float range")
    return _allocation(gains, float(np.exp(log_level)))
