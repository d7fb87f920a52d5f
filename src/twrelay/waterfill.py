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

Every sum over a row's subchannels, here and in the relay and MA engines,
adds its terms one after another in subchannel order (_sum), at any width:
padding only appends zero terms, so a row of a table gives the bits of its
list alone. On 32 or more levels, rate_of_level and power_of_level lay out
their per-subchannel terms subchannel-major, (K, ...) for a list and
(K, ..., N) for a table, and sum over axis 0, in that same order; fewer
levels keep the (..., K) layout, where the layout saves less than arranging
it costs. forward_level and inverse_level count the activation thresholds
at or below each budget or target in that layout too, by one rule for a
list and a table, and search nothing.

Precondition: every gain list is 1-D, nonempty, finite, strictly positive
and sorted descending. The kernels do not re-check it on each call;
``channel.SubchannelGains`` checks it once, when an instance is built.
This module owns two rules of the package: _checked, the outside-number
rule, through which every public entry point converts the numbers it takes
from outside, once, to raise its rule's own error, never OverflowError;
and _budget_bound, the relative 1e-12 of every budget test. The public
kernels check their budgets and targets by _checked, then run the
unchecked cores: _prepared (a list or table prepared once; _prepare in a
kernel that ignores the padded cells' warnings itself), _level, _rate,
_power and _powers, which callers that checked their inputs at entry call
directly, with the same bits. The cores reduce through the ufuncs
(np.add.reduce, not ndarray.sum, whose Python wrapper adds a fixed cost to
every call on these small arrays). The rates' overflow rule is one core,
_split_rate. _rate_core picks it or _rate for a whole call of the relay
engine or the oracle; rate_of_level falls back on it (see each).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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
_WIDE_PRODUCT = sys.float_info.max / 2  # gain * level past it may overflow (a margin for slack and round-off)
_POSITIVE = math.ulp(0.0)  # the least positive float: the floor of a rule that asks for positive values
_RULES = {None: "finite", 0.0: "finite and nonnegative", _POSITIVE: "finite and positive",
          sys.float_info.min: "finite and at least sys.float_info.min"}
# Ignores padded cells' 1/0, ln 0 and inf - inf, and the 1/alpha past the float range of a gain
# below 1/float max, which is as inert as a padded cell; as a decorator, one errstate per call.
_QUIET = np.errstate(divide="ignore", over="ignore", invalid="ignore")


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


@lru_cache(maxsize=1024, typed=True)
def _arange(*args) -> np.ndarray:
    """np.arange(*args), built once per argument tuple, read-only."""
    index = np.arange(*args)
    index.flags.writeable = False
    return index


def gain_table(rows) -> np.ndarray:
    """Zero-padded (N, K) table of the 1-D gain lists `rows`."""
    sizes = [row.size for row in rows]
    table = np.zeros((len(sizes), max(sizes)))
    if len(sizes) < 12:  # row by row costs less than the mask and the joined rows
        for i, row in enumerate(rows):
            table[i, : row.size] = row
    else:
        table[_arange(table.shape[1]) < np.asarray(sizes)[:, np.newaxis]] = np.concatenate(rows)
    return table


def _by_subchannel(values: np.ndarray, level: np.ndarray) -> tuple:
    """Per-subchannel `values` (a list's or a table's) and `level`, shaped to
    broadcast into per-subchannel terms, and the axis to sum the terms over.

    Subchannel-major on 32 or more levels, (..., K) otherwise (see the
    module docstring): on long level vectors, such as the oracle's, a
    subchannel-major sum is several times faster. A table is transposed into
    a C-contiguous copy, so the terms are subchannel-major in memory too: numpy
    would sum an axis 0 of the smallest stride pairwise, from 8 terms on.
    """
    if level.size < 32:
        return values, level[..., np.newaxis], -1
    values = np.ascontiguousarray(values.T)
    spread = level.ndim + 1 - values.ndim  # level axes ahead of a table's row axis
    return (values[(slice(None),) + (np.newaxis,) * spread] if spread > 0 else values), level, 0


def _sum(terms: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of `terms` over axis 0 (laid out as _by_subchannel lays it) or
    the last axis, one term after another in index order, into `out` if given.
    np.add.reduce adds in that order over such an axis 0 and over a last axis
    of fewer than 8 terms, but pairwise from 8 on, so a wider last axis takes
    the last partial sum of np.add.accumulate."""
    if axis == 0 or terms.shape[-1] < 8:
        return np.add.reduce(terms, axis=axis, out=out)
    return np.positive(np.add.accumulate(terms, axis=-1)[..., -1], out=out)  # a copy of the column


def _prepare(gains: np.ndarray, log: bool = False) -> tuple:
    """Inverse gains 1/alpha of a list or table (-ln alpha of a contiguous copy
    with `log`), their cumulative sums and the activation thresholds
    (m-1)*inv[m] - csum[m-1], (..., K) each; a padded cell's threshold is NaN.
    Run it under _QUIET, as _prepared does."""
    inv = -np.log(np.ascontiguousarray(gains)) if log else 1.0 / gains  # ascending
    csum = np.add.accumulate(inv, axis=-1)
    return inv, csum, _arange(1.0, gains.shape[-1] + 1) * inv - csum


_prepared = _QUIET(_prepare)


def _level(prepared: tuple, amount: np.ndarray) -> np.ndarray:
    """Unchecked (amount + csum[m-1]) / m: the level spending each budget (the
    log level reaching each target with `log`), m the count of activation
    thresholds at or below the amount (at least 1) in _by_subchannel's layout."""
    _, csum, activation = prepared
    thresholds, amounts, axis = _by_subchannel(activation, amount)
    # On axis 0, a uint8 holds the count of fewer than 256 subchannels: numpy
    # sums bools into it, and take gathers with it, several times faster.
    small = axis == 0 and activation.shape[-1] < 256
    m = np.maximum(np.add.reduce(thresholds <= amounts, axis=axis, dtype=np.uint8 if small else None), 1)
    if activation.ndim == 1:
        return (amount + csum.take(m - 1)) / m
    return (amount + csum.take(_arange(-1, csum.size - 1, csum.shape[1]) + m)) / m


def _rate(gains: np.ndarray, level: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rate_of_level over a float list or table, unconverted, where no alpha(k) * level
    overflows; into `out` if given (as are _split_rate's and _power's sums)."""
    gains, level, axis = _by_subchannel(gains, level)
    return _sum(np.log(np.maximum(level * gains, 1.0)), axis, out)


def _split_rate(gains: np.ndarray, level: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """_rate by the overflow rule: a term whose alpha(k) * level passes the
    float maximum (both exceed 1) is ln alpha(k) + ln level; the rest keep their bits."""
    gains, level, axis = _by_subchannel(gains, level)
    with np.errstate(over="ignore"):
        terms = np.log(np.maximum(level * gains, 1.0))
    split = np.log(np.maximum(level, 1.0)) + np.log(np.maximum(gains, 1.0))
    return _sum(np.where(terms == np.inf, split, terms), axis, out)


def _rate_core(*pairs):
    """The rate core of a call whose every level * gain is bounded by one (level, gain) pair's product:
    _split_rate if the largest passes _WIDE_PRODUCT, else _rate (Python floats: inf, not a warning)."""
    return _split_rate if max(float(level) * float(gain) for level, gain in pairs) > _WIDE_PRODUCT else _rate


def _power(inv: np.ndarray, level: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """power_of_level over prepared inverse gains, unconverted."""
    inv, level, axis = _by_subchannel(inv, level)
    return _sum(np.maximum(level - inv, 0.0), axis, out)


def _powers(inv: np.ndarray, level: np.ndarray) -> np.ndarray:
    """powers_of_level over prepared inverse gains, for a finite level."""
    return np.maximum(level[..., np.newaxis] - inv, 0.0)


def _exp_level(prepared: tuple, target: np.ndarray) -> np.ndarray:
    """inverse_level over a table prepared with `log`, unchecked targets."""
    log_level = _level(prepared, target)
    if np.maximum.reduce(log_level, axis=None, initial=-np.inf) > _MAX_LOG_LEVEL:
        raise ValueError("target_rate needs a water level beyond the float range")
    return np.exp(log_level)


def _checked(values, name: str, floor: float | None = 0.0, error: type = ValueError, rule: str | None = None,
             dtype: type = float) -> np.ndarray:
    """`values` from outside as a float array (a Python float or int as a
    np.float64, checked without ufunc calls), or complex with `dtype`; raises
    error(f"{name} must be {rule}", _RULES' words by default) unless each is
    finite and at least `floor` (None: any), for a Python int beyond the float
    range too. Noise variances take sys.float_info.min: a subnormal one would
    overflow the gains it divides."""
    try:
        if isinstance(values, (float, int)):
            values = np.float64(values)
            valid = math.isfinite(values) and (floor is None or values >= floor)
        else:
            values = np.asarray(values, dtype=dtype)
            finite = np.isfinite(values)
            valid = np.count_nonzero(finite if floor is None else finite & (values >= floor)) == values.size
    except OverflowError:
        valid = False
    if not valid:
        raise error(f"{name} must be {rule or _RULES[floor]}")
    return values


def _per_instance(values, n: int, name: str, floor: float | None = 0.0, noun: str = "value") -> np.ndarray:
    """_checked `values`, one or one per instance, as a new (n,) array; raises
    ValueError(f"{name} must be one {noun}, or one per instance") on any other shape."""
    values = _checked(values, name, floor)
    if values.ndim > 1 or values.size not in (1, n):
        raise ValueError(f"{name} must be one {noun}, or one per instance")
    return np.zeros(n) + values


@np.errstate(over="ignore")  # +inf past the float maximum: nothing finite overspends such a budget
def _budget_bound(budget):
    """The budget plus the relative 1e-12 every budget test grants for round-off."""
    return budget * (1.0 + 1e-12)


@np.errstate(over="raise")
def rate_of_level(gains, level):
    """Rate in nats of water level(s) `level` over `gains`.

    Sum over active subchannels of ln(alpha(k) * level); a subchannel is
    active when alpha(k) * level > 1, and where that product overflows the
    term is ln alpha(k) + ln level (_split_rate). Accepts a scalar or array
    of levels for a list, or (..., N) levels for a table, and returns a
    matching shape. Nondecreasing in the level. A public kernel, it falls back on an overflow:
    _rate_core's two reductions would cost every call, and every N=1 solve makes one.
    """
    gains, level = np.asarray(gains, dtype=float), np.asarray(level, dtype=float)
    try:
        return _out(_rate(gains, level))
    except FloatingPointError:
        return _out(_split_rate(gains, level))


def power_of_level(gains, level):
    """Total power in watts consumed by water level(s) `level` over `gains`.

    Sum over subchannels of (level - 1/alpha(k))^+. Accepts a scalar or
    array of levels for a list, or (..., N) levels for a table. Piecewise
    linear, convex, nondecreasing in the level.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.asarray(gains, dtype=float)
    return _out(_power(inv, np.asarray(level, dtype=float)))


def powers_of_level(gains, level) -> np.ndarray:
    """Per-subchannel powers (level - 1/alpha(k))^+ in watts, (..., K).

    Takes a level, or levels of any shape, for a list, or (N,) levels for
    a table, one per row; power_of_level is the sum over the last axis. A
    padded cell gets zero power; a row with no positive gain, whose level
    is +inf, gets NaN powers.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


@_QUIET
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
    level = _exp_level(_prepare(gains, log=True), _checked(target_rate, "target_rate"))
    powers = _powers(1.0 / gains, level)
    total = _sum(powers)
    return LevelAllocation(_out(level), powers, rate_of_level(gains, level), _out(total))
