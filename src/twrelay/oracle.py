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
The budget test's relative 1e-12 is waterfill._budget_bound.

The grid-size rule: a direction's uniform fill has at most MAX_GRID_LEVELS
levels, checked before any grid is built (ValueError). Every per-level
column of a call is a row of one float block sized from the axes, filled
in place (ufunc out=, the water-fill cores' out, or a copy). The block is
the call's largest allocation, so glibc's dynamic trim threshold, twice
the largest freed mmapped chunk, stays above the call's working set: with
one array per column the heap would be trimmed after every call and
faulted back in on the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SubchannelGains
from .errors import TwrelayError
from .ma_phase import SourceRates
from .relay_opt import _gain_table, _targets
from .waterfill import _POSITIVE, _budget_bound, _checked, _exp_level, _level, _power, _prepared, _rate_core

__all__ = ["OracleResult", "grid_certify", "grid_lipschitz_bound"]

RATE_TIE = 1e-9
MAX_GRID_LEVELS = 10**7  # the grid-size rule: grid levels per direction (before the budget complements)
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


def grid_lipschitz_bound(gains: SubchannelGains, resolution: float) -> float:
    """Upper bound on the rate change across one grid step, nats.

    Raises ValueError unless the resolution is finite and positive
    (waterfill._checked).
    """
    return float(np.sum(gains.pooled) * _checked(resolution, "resolution", _POSITIVE))


def _axes(gains: SubchannelGains, strategy: SourceRates, pr_max: float, resolution: float) -> tuple:
    """Level axes (ascending, deduplicated) of the two directions, and
    alpha1 and alpha2 prepared.

    The relay ledger's five-row table and targets (relay_opt._gain_table
    and _targets: alpha1, alpha2, pooled, alpha1, alpha2) give the special
    levels: inverse levels 1/mu_2, 1/mu_1, 1/mu_ma, alpha1 at r_ma -
    r_bar_1r and alpha2 at r_ma - r_bar_2r, and the pooled full-budget
    level. Its preparation's rows 0 and 1, cut to width, are alpha1's and
    alpha2's, bit for bit. Each axis, with the budget complements of the
    other's candidates, is sorted once (a merge sort: both parts are nearly
    monotone runs) and deduplicated.
    """
    table, k1, k2 = _gain_table([gains])
    whole = _prepared(table)
    full = _level(whole, np.full(5, pr_max))
    specials = np.append(_exp_level(_prepared(table, log=True), _targets([strategy])[:, 0]), full[2])
    prepared = tuple(tuple(part[row, :n] for part in whole) for row, n in enumerate((k1, k2)))
    spans = [(inv[0], hi) for (inv, *_), hi in zip(prepared, full)]
    # The grid-size rule, before any grid is built (Python floats: no overflow warning).
    span = max(float(hi - lo) for lo, hi in spans)
    if span > MAX_GRID_LEVELS * float(resolution):
        raise ValueError(f"the certification grid must have at most {MAX_GRID_LEVELS:,} levels per direction: "
                         f"a level span of {span:.6g} W at resolution {float(resolution):.6g} W has more")
    cands = []
    for (inv, *_), (lo, hi) in zip(prepared, spans):
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
        Unless the resolution is finite and positive and the budget finite
        and nonnegative (waterfill._checked, the outside-number rule), and
        if a direction's grid would have more than MAX_GRID_LEVELS levels.
    TwrelayError
        If no grid pair within 1e-9 nats of the best rate passes the budget
        test, which allows a relative 1e-12 plus the round-off of the pair's
        powers (4 ulps of each level per subchannel).
    """
    _checked(resolution, "resolution", _POSITIVE)
    _checked(pr_max, "pr_max")
    (axis1, axis2), (prep1, prep2) = _axes(gains, strategy, pr_max, resolution)
    n1, n2 = axis1.size, axis2.size
    # One block holds every per-level column, a row each (module docstring):
    # seven over axis1, one over axis2 and four over the scanned rows.
    block = np.empty((12, max(n1, n2)))
    p1, r1, m1, spare, comp_level, comp_rate, boundary_rtw = block[:7, :n1]
    m2 = block[7, :n2]
    # The levels are at most the full-budget ones, the axes' last.
    rate = _rate_core((axis1[-1], gains.alpha1[0]), (axis2[-1], gains.alpha2[0]))
    _power(prep1[0], axis1, out=p1)
    rate(gains.alpha1, axis1, out=r1)
    np.minimum(r1, strategy.r_bar_2r, out=m1)
    np.minimum(rate(gains.alpha2, axis2, out=m2), strategy.r_bar_1r, out=m2)

    # Full-power boundary sweep: for every level in direction 1, direction 2
    # absorbs the remaining budget. The componentwise monotone objective
    # attains the grid maximum here.
    np.maximum(np.subtract(pr_max, p1, out=spare), 0.0, out=spare)
    comp_level[:] = _level(prep2, spare)
    rate(gains.alpha2, comp_level, out=comp_rate)
    np.minimum(comp_rate, strategy.r_bar_1r, out=boundary_rtw)
    np.minimum(strategy.r_ma, np.add(m1, boundary_rtw, out=boundary_rtw), out=boundary_rtw)
    best_rate = float(np.max(np.multiply(0.5, boundary_rtw, out=boundary_rtw)))

    # Minimum power among near-best pairs: per direction-1 level, the
    # cheapest direction-2 level that still reaches the target capped sum.
    # Only rows that can win are searched (module docstring): from the first
    # whose need m2 can meet to the first capped row f, and uncapped ones after.
    need = np.subtract(2.0 * (best_rate - RATE_TIE), m1, out=spare)
    capped = m1 == strategy.r_bar_2r
    f = int(np.argmax(capped)) if capped.any() else n1 - 1
    start = int(np.argmax(np.append(need[: f + 1] <= m2[-1], True)))
    rows = np.append(np.arange(start, f + 1), f + 1 + np.flatnonzero(~capped[f + 1 :]))
    level1, level2, cand_power, bound = block[8:, : rows.size]  # bound's row holds the keys, then level2's powers
    idx = np.searchsorted(m2, need.take(rows, out=bound), side="left")
    ok = idx < n2
    axis2.take(np.minimum(idx, n2 - 1, out=idx), out=level2)
    np.add(p1.take(rows, out=cand_power), _power(prep2[0], level2, out=bound), out=cand_power)
    # The budget test allows a relative 1e-12 and the round-off of the
    # pair's powers: each of a direction's k terms level - 1/alpha, and the
    # sums that gave a full-budget level, are exact to about an ulp of the
    # level, which at low SNR (pr_max * alpha << 1) is far above 1e-12 * pr_max.
    np.multiply(gains.alpha1.size, axis1.take(rows, out=level1), out=bound)
    bound += gains.alpha2.size * level2
    bound *= _ROUND_OFF
    bound += _budget_bound(pr_max)
    ok &= cand_power <= bound
    if not np.any(ok):
        raise TwrelayError("grid certification found no qualifying pair")
    cand_power[~ok] = np.inf
    k = int(np.argmin(cand_power))
    argmax_levels = (float(level1[k]), float(level2[k]))

    # Full-power baseline: among boundary maximizers (all consume the full
    # budget), prefer the largest raw broadcast sum.
    bc_sum = np.add(r1, comp_rate, out=spare)
    bc_sum[boundary_rtw < best_rate - RATE_TIE] = -np.inf
    i = int(np.argmax(bc_sum))
    return OracleResult(
        best_rate, float(cand_power[k]), argmax_levels, (float(axis1[i]), float(comp_level[i])),
        (float(r1[i]), float(comp_rate[i])), float(resolution),
    )
