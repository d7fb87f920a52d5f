"""Water-filling kernels, row-wise over padded gain tables.

All rates are in nats and all powers and water levels in watts. A "level"
is the water level 1/lambda: subchannel k with gain alpha(k) carries power
p(k) = (level - 1/alpha(k))^+ and rate ln(alpha(k) * level) when active.

The kernels come in two directions: forward (power budget -> level) and
inverse (target rate -> level). Both are exact closed forms obtained by
scanning active-set sizes over the sorted gain list, not by bisection.
A subchannel whose inverse gain equals the level exactly is counted as
active with zero power; this keeps the active-set size deterministic and
does not change any power or rate.

Every kernel takes either one gain list (1-D) or a table of N lists, one
per row, zero-padded to a common width K (gain_table builds one). A padded
cell has gain 0 and inverse gain +inf: it carries no power, has no
activation threshold and adds no rate. With a table, budgets, targets and
levels are per row, shape (N,), and so are the results; with one list
they may be scalars (the results are then floats) or, for the level
functions, arrays of any shape.

On 32 or more levels, rate_of_level and power_of_level lay out their
per-subchannel terms subchannel-major, (K, ...) for a list and (K, ..., N)
for a table, and sum over axis 0: each level's terms are added one after
another in subchannel order. numpy's sum over a last axis adds fewer than
8 terms in that same order, but from 8 terms on it sums pairwise, so a list
or table 8 or more wide keeps the (..., K) layout and numpy's pairwise
order, and so do fewer levels, where the layout saves less than arranging
it costs. Either way the bits are those of a last-axis sum. Padding only
appends zero terms to each row's sums, so a row of a table narrower than 8
gives the same bits as its list alone. forward_level and inverse_level
count the activation thresholds at or below each budget or target in that
layout too, by one rule for a list and a table, and search nothing.

Precondition: every gain list is 1-D, nonempty, finite, strictly positive
and sorted descending. The kernels do not re-check it on each call;
``channel.SubchannelGains`` checks it once, when an instance is built.
The public kernels check their budgets and targets, once, and then run
the unchecked cores: _prepared (a list or table prepared once), _level,
_rate, _power and _powers. Callers inside the package that checked their
inputs at entry call the cores directly, with the same bits. The cores
reduce through the ufuncs (np.add.reduce, not ndarray.sum, whose Python
wrapper adds a fixed cost to every call on these small arrays).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevelAllocation",
    "gain_table",
    "rate_of_level",
    "power_of_level",
    "powers_of_level",
    "forward_level",
    "inverse_level",
    "inverse_waterfill",
]

# Largest ln(level) whose exp is a finite float.
_MAX_LOG_LEVEL = math.log(sys.float_info.max)


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class LevelAllocation:
    """Water-filling allocation induced by a water level (one per table row).

    Attributes
    ----------
    level : float or np.ndarray
        Water level 1/lambda in watts; (N,) for a table.
    powers : np.ndarray
        Per-subchannel powers in watts, aligned with the gains.
    rate : float or np.ndarray
        Sum rate over active subchannels, nats.
    total_power : float or np.ndarray
        Sum of powers, watts.
    """

    level: float
    powers: np.ndarray
    rate: float
    total_power: float


def _out(value: np.ndarray):
    return float(value) if value.ndim == 0 else value


def gain_table(rows) -> np.ndarray:
    """Zero-padded (N, K) table of the 1-D gain lists `rows`."""
    sizes = [row.size for row in rows]
    cells = np.arange(max(sizes)) < np.asarray(sizes)[:, np.newaxis]
    table = np.zeros(cells.shape)
    table[cells] = np.concatenate(rows)
    return table


def _by_subchannel(values: np.ndarray, level: np.ndarray) -> tuple:
    """Per-subchannel `values` (a list's or a table's) and `level`, shaped to
    broadcast into per-subchannel terms, and the axis to sum the terms over.

    Subchannel-major on 32 or more levels and fewer than 8 subchannels,
    (..., K) otherwise (see the module docstring): each sum keeps numpy's
    last-axis order, and on long level vectors, such as the oracle's, a
    subchannel-major sum is several times faster.
    """
    if level.size < 32 or values.shape[-1] >= 8:
        return values, level[..., np.newaxis], -1
    spread = level.ndim + 1 - values.ndim  # level axes ahead of a table's row axis
    return (values.T[(slice(None),) + (np.newaxis,) * spread] if spread > 0 else values.T), level, 0


def _prepared(gains: np.ndarray, log: bool = False) -> tuple:
    """Inverse gains 1/alpha of a list or table (-ln alpha of a contiguous copy
    with `log`), their cumulative sums and the activation thresholds
    (m-1)*inv[m] - csum[m-1], (..., K) each; a padded cell's threshold is NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = -np.log(np.ascontiguousarray(gains)) if log else 1.0 / gains  # ascending
        csum = np.add.accumulate(inv, axis=-1)
        return inv, csum, np.arange(1.0, gains.shape[-1] + 1) * inv - csum


def _level(prepared: tuple, amount: np.ndarray) -> np.ndarray:
    """Unchecked (amount + csum[m-1]) / m: the level spending each budget (the
    log level reaching each target with `log`), m the count of activation
    thresholds at or below the amount (at least 1) in _by_subchannel's layout."""
    _, csum, activation = prepared
    thresholds, amounts, axis = _by_subchannel(activation, amount)
    # Axis 0 means fewer than 8 subchannels, so a uint8 holds the count:
    # numpy sums bools into it, and take gathers with it, several times faster.
    m = np.maximum(np.add.reduce(thresholds <= amounts, axis=axis, dtype=None if axis else np.uint8), 1)
    if activation.ndim == 1:
        return (amount + csum.take(m - 1)) / m
    return (amount + csum.take(np.arange(-1, csum.size - 1, csum.shape[1]) + m)) / m


def _rate(gains: np.ndarray, level: np.ndarray) -> np.ndarray:
    """rate_of_level over a float list or table, unconverted."""
    gains, level, axis = _by_subchannel(gains, level)
    return np.add.reduce(np.log(np.maximum(level * gains, 1.0)), axis=axis)


def _power(inv: np.ndarray, level: np.ndarray) -> np.ndarray:
    """power_of_level over prepared inverse gains, unconverted."""
    inv, level, axis = _by_subchannel(inv, level)
    return np.add.reduce(np.maximum(level - inv, 0.0), axis=axis)


def _powers(inv: np.ndarray, level: np.ndarray) -> np.ndarray:
    """powers_of_level over prepared inverse gains, for a finite level."""
    return np.maximum(level[..., np.newaxis] - inv, 0.0)


def _exp_level(prepared: tuple, target: np.ndarray) -> np.ndarray:
    """inverse_level over a table prepared with `log`, unchecked targets."""
    log_level = _level(prepared, target)
    if np.maximum.reduce(log_level, axis=None) > _MAX_LOG_LEVEL:
        raise ValueError("target_rate needs a water level beyond the float range")
    return np.exp(log_level)


def _checked(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.logical_and.reduce(np.isfinite(values) & (values >= 0.0), axis=None):
        raise ValueError(f"{name} must be finite and nonnegative")
    return values


def rate_of_level(gains, level):
    """Rate in nats of water level(s) `level` over `gains`.

    Sum over active subchannels of ln(alpha(k) * level); a subchannel is
    active when alpha(k) * level > 1. Accepts a scalar or array of levels
    for a list, or (..., N) levels for a table, and returns a matching
    shape. Nondecreasing in the level.
    """
    return _out(_rate(np.asarray(gains, dtype=float), np.asarray(level, dtype=float)))


def power_of_level(gains, level):
    """Total power in watts consumed by water level(s) `level` over `gains`.

    Sum over subchannels of (level - 1/alpha(k))^+. Accepts a scalar or
    array of levels for a list, or (..., N) levels for a table. Piecewise
    linear, convex, nondecreasing in the level.
    """
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.asarray(gains, dtype=float)
    return _out(_power(inv, np.asarray(level, dtype=float)))


def powers_of_level(gains, level) -> np.ndarray:
    """Per-subchannel powers (level - 1/alpha(k))^+ in watts, (..., K).

    Takes a level, or levels of any shape, for a list, or (N,) levels for
    a table, one per row; power_of_level is the sum over the last axis. A
    padded cell gets zero power; a row with no positive gain, whose level
    is +inf, gets NaN powers.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _powers(1.0 / np.asarray(gains, dtype=float), np.asarray(level))


def forward_level(gains, budget):
    """Water level(s) that spend exactly `budget` watts over `gains`.

    Closed form: with m subchannels active the level is
    (budget + sum_{k<=m} 1/alpha(k)) / m, and m is the count of activation
    thresholds of the sorted inverse gains at or below the budget (see
    _level). Accepts a scalar or array of budgets for a list, or (N,)
    budgets for a table, and returns a matching shape. A table row with no
    positive gain gets level +inf. Raises ValueError if a budget is
    negative or non-finite.
    """
    budget = _checked(budget, "budget")
    return _out(_level(_prepared(np.asarray(gains, dtype=float)), budget))


def inverse_level(gains, target_rate):
    """Water level(s) whose rate over `gains` is exactly `target_rate` nats.

    With m subchannels active, ln(level) = (target_rate + sum_{k<=m}
    ln(1/alpha(k))) / m, and m is the count of activation thresholds of the
    sorted ln(1/alpha) at or below the target. A scalar target for a list,
    or (N,) targets for a table. The log is taken of a contiguous copy, so
    a list stored as a reversed view gives the bits of its table row (np.log
    rounds differently on a reversed view).

    Raises
    ------
    ValueError
        If a target is negative or non-finite, or its level overflows.
    """
    target = _checked(target_rate, "target_rate")
    return _out(_exp_level(_prepared(np.asarray(gains, dtype=float), log=True), target))


def inverse_waterfill(gains, target_rate) -> LevelAllocation:
    """Minimum-power allocation over `gains` achieving `target_rate` nats.

    Parameters
    ----------
    gains : array_like
        Subchannel gains in 1/watts, sorted descending, strictly positive;
        or a padded (N, K) table of such lists.
    target_rate : float or array_like
        Rate to achieve, nats, achieved exactly; (N,) for a table.

    Returns
    -------
    LevelAllocation
        The unique allocation with rate_of_level(gains, level) ==
        target_rate (see inverse_level). A zero target yields level
        1/alpha_max and all-zero powers.

    Raises
    ------
    ValueError
        If a target is negative or non-finite, or its level overflows.
    """
    gains = np.asarray(gains, dtype=float)
    level = _exp_level(_prepared(gains, log=True), _checked(target_rate, "target_rate"))
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = _powers(1.0 / gains, level)
    total = np.add.reduce(powers, axis=-1)
    return LevelAllocation(_out(level), powers, rate_of_level(gains, level), _out(total))
