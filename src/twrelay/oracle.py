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
full-power boundary and the minimum-power scan can walk each level column
monotonically. Both scans return exactly what the exhaustive pair
enumeration would (cross-checked against it in the test suite at coarse
resolutions, where exhaustive enumeration is affordable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SubchannelGains
from .ma_phase import SourceRates
from .waterfill import forward_level, inverse_waterfill, power_of_level, rate_of_level

__all__ = ["OracleResult", "grid_certify", "grid_lipschitz_bound"]

RATE_TIE = 1e-9


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
    """Upper bound on the rate change across one grid step, nats."""
    return float(np.sum(gains.pooled) * resolution)


def _special_levels(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> np.ndarray:
    pooled = gains.pooled
    r_ma = strategy.r_ma
    specials = [
        inverse_waterfill(gains.alpha2, strategy.r_bar_1r).level,
        inverse_waterfill(gains.alpha1, strategy.r_bar_2r).level,
        inverse_waterfill(pooled, r_ma).level,
        forward_level(pooled, pr_max),
        inverse_waterfill(gains.alpha1, max(r_ma - strategy.r_bar_1r, 0.0)).level,
        inverse_waterfill(gains.alpha2, max(r_ma - strategy.r_bar_2r, 0.0)).level,
    ]
    return np.asarray(specials, dtype=float)


def _axes(
    gains: SubchannelGains, strategy: SourceRates, pr_max: float, resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """Level axes (ascending, deduplicated) for the two directions."""
    specials = _special_levels(gains, strategy, pr_max)
    base = []
    for alpha in (gains.alpha1, gains.alpha2):
        lo = 1.0 / alpha[0]
        hi = forward_level(alpha, pr_max)
        parts = [
            np.arange(lo, hi, resolution),
            np.asarray([lo, hi]),
            1.0 / alpha,
            specials,
        ]
        axis = np.concatenate(parts)
        base.append(np.unique(axis[(axis >= lo) & (axis <= hi)]))
    # Budget complements of the other direction's grid make every
    # full-power pair representable on the cross grid.
    axis1, axis2 = base
    comp1 = forward_level(
        gains.alpha1, np.maximum(pr_max - power_of_level(gains.alpha2, axis2), 0.0)
    )
    comp2 = forward_level(
        gains.alpha2, np.maximum(pr_max - power_of_level(gains.alpha1, axis1), 0.0)
    )
    full1 = np.unique(np.concatenate([axis1, comp1]))
    full2 = np.unique(np.concatenate([axis2, comp2]))
    return full1, full2


def _capped_rates(gains, strategy, axis1, axis2):
    r1 = rate_of_level(gains.alpha1, axis1)
    r2 = rate_of_level(gains.alpha2, axis2)
    m1 = np.minimum(r1, strategy.r_bar_2r)
    m2 = np.minimum(r2, strategy.r_bar_1r)
    return r1, r2, m1, m2


def grid_certify(
    gains: SubchannelGains, strategy: SourceRates, pr_max: float, resolution: float = 1e-4
) -> OracleResult:
    """Exhaustive-grid optimum of one instance.

    Suitable for desk-size instances (a few gains per direction). Returns
    the maximum two-way rate over all feasible level pairs on the grid,
    and the minimum consumed power among pairs within 1e-9 nats of it.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if not (math.isfinite(pr_max) and pr_max >= 0.0):
        raise ValueError("pr_max must be finite and nonnegative")
    r_ma = strategy.r_ma
    axis1, axis2 = _axes(gains, strategy, pr_max, resolution)
    p1 = power_of_level(gains.alpha1, axis1)
    p2 = power_of_level(gains.alpha2, axis2)
    r1, r2, m1, m2 = _capped_rates(gains, strategy, axis1, axis2)

    # Full-power boundary sweep: for every level in direction 1, direction 2
    # absorbs the remaining budget. The componentwise monotone objective
    # attains the grid maximum here.
    comp_level = forward_level(gains.alpha2, np.maximum(pr_max - p1, 0.0))
    comp_rate = rate_of_level(gains.alpha2, comp_level)
    boundary_rtw = 0.5 * np.minimum(
        r_ma, m1 + np.minimum(comp_rate, strategy.r_bar_1r)
    )
    best_rate = float(np.max(boundary_rtw))

    # Minimum power among near-best pairs: per direction-1 level, the
    # cheapest direction-2 level that still reaches the target capped sum.
    target = 2.0 * (best_rate - RATE_TIE)
    need = target - m1
    idx = np.searchsorted(m2, need, side="left")
    ok = idx < m2.size
    idx = np.minimum(idx, m2.size - 1)
    cand_power = p1 + p2[idx]
    ok &= cand_power <= pr_max + 1e-12
    if not np.any(ok):
        # Defensive: the boundary maximizer itself always qualifies.
        raise AssertionError("grid certification found no qualifying pair")
    cand_power = np.where(ok, cand_power, np.inf)
    best_i = int(np.argmin(cand_power))
    min_power = float(cand_power[best_i])
    argmax_levels = (float(axis1[best_i]), float(axis2[idx[best_i]]))

    # Full-power baseline: among boundary maximizers (all consume the full
    # budget), prefer the largest raw broadcast sum.
    qualifying = boundary_rtw >= best_rate - RATE_TIE
    bc_sum = r1 + comp_rate
    base_i = int(np.argmax(np.where(qualifying, bc_sum, -np.inf)))
    baseline_levels = (float(axis1[base_i]), float(comp_level[base_i]))
    baseline_bc = (float(r1[base_i]), float(comp_rate[base_i]))

    return OracleResult(
        best_rate=best_rate,
        min_power_at_best=min_power,
        argmax_levels=argmax_levels,
        baseline_levels=baseline_levels,
        baseline_bc_rates=baseline_bc,
        grid_resolution=float(resolution),
    )
