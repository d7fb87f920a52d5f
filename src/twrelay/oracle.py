"""Grid-search certification of the relay power allocation.

Independent reference for the seven-step optimizer: evaluates the two-way
sum rate over a dense grid of water-level pairs and reports the best rate
found, the least power among near-best grid points, and the solution a
plain rate maximizer with no interest in power consumption would return
(the full-power baseline).

The level grid for each direction is the uniform fill at the requested
resolution plus every subchannel breakpoint, the relative water levels,
the full-budget level, and the budget-complements of the other
direction's grid points, so the optimizer's candidate solutions are
exactly representable and equality checks are not resolution-limited.

The two-way rate is componentwise nondecreasing in the two levels and the
budget set is downward closed, so the grid maximum is attained on the
full-power boundary. The minimum-power scan looks up, per direction-1
row, the cheapest direction-2 level meeting the row's need, but only on
rows that can win. Let f be the first row whose capped rate m1 is
r_bar_2r (else the last row). A capped row after f has f's need and at
least f's power, so it never beats f, the first of equals, and qualifies
only if f does. Rows before the first row (up to f) whose need the top
direction-2 level meets cannot qualify. Uncapped rows after f are kept:
the rate's last bits need not be monotone. Both scans return exactly what
the exhaustive pair enumeration would (cross-checked in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SubchannelGains
from .errors import TwrelayError
from .ma_phase import SourceRates
from .waterfill import _exp_level, _level, _power, _prepared, gain_table, rate_of_level

__all__ = ["OracleResult", "grid_certify", "grid_lipschitz_bound"]

RATE_TIE = 1e-9
# Budget slack of a grid pair per subchannel, relative to its level: 4 ulps.
_ROUND_OFF = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum of one instance on the evaluation grid.

    best_rate is the maximum two-way sum rate (nats, halved convention);
    min_power_at_best the least power among grid points within 1e-9 nats
    of it; argmax_levels a pair attaining that; baseline_levels and
    baseline_bc_rates the full-power maximizer (max consumed power, then
    max broadcast sum). That is the solution a plain rate maximizer with
    no interest in power consumption returns: its broadcast sum keeps
    growing with the budget after the two-way rate has saturated.
    """

    best_rate: float
    min_power_at_best: float
    argmax_levels: tuple[float, float]
    baseline_levels: tuple[float, float]
    baseline_bc_rates: tuple[float, float]
    grid_resolution: float


def _check_resolution(resolution: float) -> None:
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError("resolution must be positive and finite")


def grid_lipschitz_bound(gains: SubchannelGains, resolution: float) -> float:
    """Upper bound on the rate change across one grid step, nats.

    Raises ValueError unless the resolution is positive and finite.
    """
    _check_resolution(resolution)
    return float(np.sum(gains.pooled) * resolution)


def _axes(gains: SubchannelGains, strategy: SourceRates, pr_max: float, resolution: float) -> tuple:
    """Level axes (ascending, deduplicated) of the two directions, and
    alpha1 and alpha2 prepared.

    One five-row table (alpha2, alpha1, pooled, alpha1, alpha2) gives the
    special levels: inverse levels 1/mu_1, 1/mu_2, 1/mu_ma, alpha1 at r_ma -
    r_bar_1r and alpha2 at r_ma - r_bar_2r, and the pooled full-budget
    level. Its preparation's rows 1 and 0, cut to width, are alpha1's and
    alpha2's, bit for bit. Each axis, with the budget complements of the
    other's candidates, is sorted once (a merge sort: both parts are nearly
    monotone runs) and deduplicated.
    """
    r_ma, r1, r2 = strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r
    table = gain_table([gains.alpha2, gains.alpha1, gains.pooled, gains.alpha1, gains.alpha2])
    targets = np.array([r1, r2, r_ma, max(r_ma - r1, 0.0), max(r_ma - r2, 0.0)])
    whole = _prepared(table)
    full = _level(whole, np.full(5, pr_max))
    specials = np.append(_exp_level(_prepared(table, log=True), targets), full[2])
    widths = (1, gains.alpha1.size), (0, gains.alpha2.size)
    prepared = tuple(tuple(part[row, :n] for part in whole) for row, n in widths)
    cands = []
    for (inv, *_), hi in zip(prepared, full[1::-1]):
        lo = inv[0]
        axis = np.concatenate([np.arange(lo, hi, resolution), [lo, hi], inv, specials])
        cands.append(axis[(axis >= lo) & (axis <= hi)])
    axes = []
    for prep, cand, other, other_cand in zip(prepared, cands, prepared[::-1], cands[::-1]):
        # Budget complements of the other direction's grid make every
        # full-power pair representable on the cross grid.
        comp = _level(prep, np.maximum(pr_max - _power(other[0], other_cand), 0.0))
        axis = np.sort(np.concatenate([cand, comp]), kind="stable")
        axes.append(axis[np.append(True, axis[1:] != axis[:-1])])
    return tuple(axes), prepared


def grid_certify(
    gains: SubchannelGains, strategy: SourceRates, pr_max: float, resolution: float
) -> OracleResult:
    """Exhaustive-grid optimum of one instance.

    Suitable for desk-size instances (a few gains per direction). Returns
    the maximum two-way rate over all feasible level pairs on the grid,
    and the minimum consumed power among pairs within 1e-9 nats of it.

    Raises
    ------
    ValueError
        Unless the resolution is positive and finite and the budget finite
        and nonnegative.
    TwrelayError
        If no grid pair within 1e-9 nats of the best rate passes the budget
        test, which allows a relative 1e-12 plus the round-off of the pair's
        powers (4 ulps of each level per subchannel).
    """
    _check_resolution(resolution)
    if not (math.isfinite(pr_max) and pr_max >= 0.0):
        raise ValueError("pr_max must be finite and nonnegative")
    (axis1, axis2), (prep1, prep2) = _axes(gains, strategy, pr_max, resolution)
    p1 = _power(prep1[0], axis1)
    r1, r2 = rate_of_level(gains.alpha1, axis1), rate_of_level(gains.alpha2, axis2)
    m1, m2 = np.minimum(r1, strategy.r_bar_2r), np.minimum(r2, strategy.r_bar_1r)

    # Full-power boundary sweep: for every level in direction 1, direction 2
    # absorbs the remaining budget. The componentwise monotone objective
    # attains the grid maximum here.
    comp_level = _level(prep2, np.maximum(pr_max - p1, 0.0))
    comp_rate = rate_of_level(gains.alpha2, comp_level)
    boundary_rtw = 0.5 * np.minimum(strategy.r_ma, m1 + np.minimum(comp_rate, strategy.r_bar_1r))
    best_rate = float(np.max(boundary_rtw))

    # Minimum power among near-best pairs: per direction-1 level, the
    # cheapest direction-2 level that still reaches the target capped sum.
    # Only rows that can win are searched (module docstring): from the first
    # whose need m2 can meet to the first capped row f, and uncapped ones after.
    need = 2.0 * (best_rate - RATE_TIE) - m1
    capped = m1 == strategy.r_bar_2r
    f = int(np.argmax(capped)) if capped.any() else m1.size - 1
    start = int(np.argmax(np.append(need[: f + 1] <= m2[-1], True)))
    rows = np.append(np.arange(start, f + 1), f + 1 + np.flatnonzero(~capped[f + 1 :]))
    idx = np.searchsorted(m2, need[rows], side="left")
    ok = idx < m2.size
    idx = np.minimum(idx, m2.size - 1)
    level1, level2 = axis1[rows], axis2[idx]
    cand_power = p1[rows] + _power(prep2[0], level2)
    # The budget test allows a relative 1e-12 and the round-off of the
    # pair's powers: each of a direction's k terms level - 1/alpha, and the
    # sums that gave a full-budget level, are exact to about an ulp of the
    # level, which at low SNR (pr_max * alpha << 1) is far above 1e-12 * pr_max.
    round_off = _ROUND_OFF * (gains.alpha1.size * level1 + gains.alpha2.size * level2)
    ok &= cand_power <= pr_max * (1.0 + 1e-12) + round_off
    if not np.any(ok):
        raise TwrelayError("grid certification found no qualifying pair")
    cand_power = np.where(ok, cand_power, np.inf)
    k = int(np.argmin(cand_power))
    argmax_levels = (float(level1[k]), float(level2[k]))

    # Full-power baseline: among boundary maximizers (all consume the full
    # budget), prefer the largest raw broadcast sum.
    qualifying = boundary_rtw >= best_rate - RATE_TIE
    i = int(np.argmax(np.where(qualifying, r1 + comp_rate, -np.inf)))
    return OracleResult(
        best_rate, float(cand_power[k]), argmax_levels, (float(axis1[i]), float(comp_level[i])),
        (float(r1[i]), float(comp_rate[i])), float(resolution),
    )
