"""Relay-side power allocation: maximum two-way sum rate, minimum power.

The relay re-encodes both decoded messages with superposition coding and
broadcasts; each destination cancels its own message, so the two
directions reduce to parallel water-filling problems coupled only by the
relay's power budget and by three rate ceilings inherited from the
multiple-access phase:

  * direction i (carrying node j's message, j != i) is useless beyond
    node j's uplink rate r_bar_jr, and
  * the broadcast rate sum is useless beyond the MA sum rate r_ma.

Each ceiling converts into a "relative water level" on the corresponding
gain list via the inverse water-fill: the level on alpha_2 whose rate is
r_bar_1r (written 1/mu_1), the level on alpha_1 whose rate is r_bar_2r
(1/mu_2), and the level on the pooled gains whose rate is r_ma
(1/mu_ma). The optimizer then runs a seven-step, non-iterative procedure:
water-fill the full budget uniformly, clip each direction to its ceiling
level, re-spend freed power in the other direction, and finally pull the
pair back onto the MA-rate ceiling, either by dropping both levels to
1/mu_ma or by lowering only the higher one through a closed-form inverse
water-fill. The result provably maximizes the two-way sum rate and, among
all maximizers, consumes the least relay power.

Level-comparison branches use an absolute slack of 1e-9 W so exact-tie
instances do not chatter between paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SubchannelGains
from .errors import InvalidStrategyError
from .ma_phase import SourceRates
from .waterfill import (
    forward_level,
    forward_waterfill,
    inverse_waterfill,
    power_of_level,
    rate_of_level,
)

__all__ = [
    "SourceRates",
    "RelativeLevels",
    "ThresholdLedger",
    "RelaySolution",
    "relative_levels",
    "thresholds",
    "optimize",
    "classify_case",
    "relay_covariance",
    "two_way_rate",
]

# Absolute slack on level / rate / power comparisons in branch tests.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class RelativeLevels:
    """Water levels (all stored as 1/value, in watts) derived from the rates.

    inv_mu1 lives on the direction-2 gains and reproduces r_bar_1r;
    inv_mu2 lives on the direction-1 gains and reproduces r_bar_2r;
    inv_mu_ma lives on the pooled gains and reproduces r_ma;
    inv_lambda0 is the plain full-budget water-fill level on the pooled gains.
    """

    inv_mu1: float
    inv_mu2: float
    inv_mu_ma: float
    inv_lambda0: float

    @property
    def cap1(self) -> float:
        """Largest useful level for direction 1 (node 2's message)."""
        return self.inv_mu2

    @property
    def cap2(self) -> float:
        """Largest useful level for direction 2 (node 1's message)."""
        return self.inv_mu1


@dataclass(frozen=True)
class ThresholdLedger:
    """Budget thresholds (watts) separating the optimizer's regimes.

    p_l <= p_t <= p_s always; case_symmetric is true when the pooled level
    1/mu_ma does not exceed min(1/mu_1, 1/mu_2), in which case the optimum
    keeps both directions at a common level for every budget. p_bar_ma is
    the power at which the broadcast rate sum first reaches r_ma (equals
    p_ma in the symmetric case).
    """

    p_ma: float
    p_l: float
    p_t: float
    p_s: float
    p_bar_ma: float
    case_symmetric: bool


@dataclass(frozen=True)
class RelaySolution:
    """Optimal relay allocation plus bookkeeping.

    level1/level2 are the per-direction water levels 1/lambda_i; powers
    align with the sorted gain lists; b1/b2 are the n_r x n_r relay
    covariances; bc_rates are the raw broadcast rates per direction;
    sum_rate_tw includes the 1/2 two-slot factor; step_trace lists the
    visited steps of the seven-step procedure.

    efficient: the broadcast rate sum matches the best achievable with the
    power actually consumed (pooled water-fill of consumed_power).
    source_waste: the budget sits below the threshold where the broadcast
    side stops binding the two-way rate, so the sources could have spent
    less power for the same end-to-end sum rate.
    """

    level1: float
    level2: float
    powers1: np.ndarray
    powers2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    consumed_power: float
    sum_rate_tw: float
    bc_rates: tuple[float, float]
    step_trace: tuple[int, ...]
    efficient: bool
    source_waste: bool


def _validated_rates(rates: SourceRates) -> SourceRates:
    if rates.r_ma - (rates.r_bar_1r + rates.r_bar_2r) > -1e-12:
        raise InvalidStrategyError(
            "r_ma must be strictly below r_bar_1r + r_bar_2r "
            "(no covariance pair can induce such rates)"
        )
    if rates.r_ma < max(rates.r_bar_1r, rates.r_bar_2r) - 1e-12:
        raise InvalidStrategyError("r_ma cannot be below either single-user rate")
    return rates


def two_way_rate(r_ma: float, r_bar_1r: float, r_bar_2r: float, bc1: float, bc2: float) -> float:
    """Two-way sum rate in nats, including the 1/2 two-slot factor."""
    forwarded = min(bc1, r_bar_2r) + min(bc2, r_bar_1r)
    return 0.5 * min(r_ma, forwarded)


def relay_covariance(v_factor: np.ndarray, powers) -> np.ndarray:
    """Relay transmit covariance V diag(powers, 0, ...) V^H for one direction."""
    powers = np.asarray(powers, dtype=float)
    diag = np.zeros(v_factor.shape[0])
    diag[: powers.size] = powers
    return (v_factor * diag) @ v_factor.conj().T


def relative_levels(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> RelativeLevels:
    """Convert the three rate ceilings and the budget into water levels."""
    if not (math.isfinite(pr_max) and pr_max >= 0.0):
        raise ValueError("pr_max must be finite and nonnegative")
    pooled = gains.pooled
    return RelativeLevels(
        inv_mu1=inverse_waterfill(gains.alpha2, strategy.r_bar_1r).level,
        inv_mu2=inverse_waterfill(gains.alpha1, strategy.r_bar_2r).level,
        inv_mu_ma=inverse_waterfill(pooled, strategy.r_ma).level,
        inv_lambda0=forward_waterfill(pooled, pr_max).level,
    )


def thresholds(gains: SubchannelGains, levels: RelativeLevels, strategy: SourceRates) -> ThresholdLedger:
    """Budget thresholds of the instance.

    p_ma / p_l / p_s are pooled water-fill powers at the levels 1/mu_ma,
    min(1/mu_1, 1/mu_2) and max(1/mu_1, 1/mu_2). p_t is the power with both
    per-direction ceilings exactly tight (1/mu_2 on alpha_1 and 1/mu_1 on
    alpha_2). In the asymmetric case p_bar_ma pins the tight direction at
    its ceiling and gives the loose direction d the level whose rate is
    r_ma - r_bar_dr.
    """
    pooled = gains.pooled
    low = min(levels.inv_mu1, levels.inv_mu2)
    high = max(levels.inv_mu1, levels.inv_mu2)
    p_ma = power_of_level(pooled, levels.inv_mu_ma)
    p_l = power_of_level(pooled, low)
    p_s = power_of_level(pooled, high)
    p_t = power_of_level(gains.alpha1, levels.cap1) + power_of_level(gains.alpha2, levels.cap2)
    symmetric = levels.inv_mu_ma <= low + TIE_TOL
    if symmetric:
        p_bar_ma = p_ma
    elif levels.cap1 >= levels.cap2:
        bar1 = inverse_waterfill(gains.alpha1, max(strategy.r_ma - strategy.r_bar_1r, 0.0)).level
        p_bar_ma = power_of_level(gains.alpha1, bar1) + power_of_level(gains.alpha2, levels.cap2)
    else:
        bar2 = inverse_waterfill(gains.alpha2, max(strategy.r_ma - strategy.r_bar_2r, 0.0)).level
        p_bar_ma = power_of_level(gains.alpha1, levels.cap1) + power_of_level(gains.alpha2, bar2)
    return ThresholdLedger(
        p_ma=p_ma,
        p_l=p_l,
        p_t=p_t,
        p_s=p_s,
        p_bar_ma=p_bar_ma,
        case_symmetric=symmetric,
    )


def optimize(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> RelaySolution:
    """Run the seven-step allocation and package the optimal solution.

    Steps: (1) water-fill the full budget on the pooled gains; (2) if some
    direction sits above its ceiling level, (3) clip the tighter direction
    to its ceiling and (4) re-spend the freed power in the other
    direction, (5) clipping it too if it overshoots its own ceiling;
    (6) if both levels reached 1/mu_ma drop them to 1/mu_ma exactly, and
    otherwise accept the pair unless its broadcast rate sum exceeds r_ma,
    in which case (7) the higher level is lowered through the closed-form
    inverse water-fill so the sum lands on r_ma exactly.
    """
    rates = _validated_rates(strategy)
    levels = relative_levels(gains, strategy, pr_max)
    ledger = thresholds(gains, levels, strategy)

    alpha = {1: gains.alpha1, 2: gains.alpha2}
    cap = {1: levels.cap1, 2: levels.cap2}
    r_bar = {1: rates.r_bar_1r, 2: rates.r_bar_2r}
    lv = {1: levels.inv_lambda0, 2: levels.inv_lambda0}

    trace = [1, 2]
    if not (lv[1] <= cap[1] + TIE_TOL and lv[2] <= cap[2] + TIE_TOL):
        # Only the direction with the smaller ceiling can be the (first)
        # violator; call it a and its partner b.
        a = 1 if cap[1] <= cap[2] else 2
        b = 3 - a
        trace.append(3)
        lv[a] = cap[a]
        if lv[b] <= cap[b] + TIE_TOL:
            trace.append(4)
            remainder = pr_max - power_of_level(alpha[a], cap[a])
            lv[b] = forward_level(alpha[b], max(remainder, 0.0))
            if lv[b] > cap[b] + TIE_TOL:
                trace.append(5)
                lv[b] = cap[b]
        else:
            trace.append(5)
            lv[b] = cap[b]

    trace.append(6)
    if lv[1] >= levels.inv_mu_ma - TIE_TOL and lv[2] >= levels.inv_mu_ma - TIE_TOL:
        lv[1] = lv[2] = levels.inv_mu_ma
    elif lv[1] <= levels.inv_mu_ma + TIE_TOL and lv[2] <= levels.inv_mu_ma + TIE_TOL:
        pass
    else:
        bc_sum = rate_of_level(alpha[1], lv[1]) + rate_of_level(alpha[2], lv[2])
        if bc_sum > rates.r_ma + TIE_TOL:
            trace.append(7)
            j = 1 if lv[1] > lv[2] else 2
            lv[j] = inverse_waterfill(alpha[j], max(rates.r_ma - r_bar[j], 0.0)).level

    powers = {i: np.maximum(lv[i] - 1.0 / alpha[i], 0.0) for i in (1, 2)}
    bc = {i: rate_of_level(alpha[i], lv[i]) for i in (1, 2)}
    consumed = float(np.sum(powers[1]) + np.sum(powers[2]))
    best_bc = forward_waterfill(gains.pooled, consumed).rate
    return RelaySolution(
        level1=lv[1],
        level2=lv[2],
        powers1=powers[1],
        powers2=powers[2],
        b1=relay_covariance(gains.v1, powers[1]),
        b2=relay_covariance(gains.v2, powers[2]),
        consumed_power=consumed,
        sum_rate_tw=two_way_rate(rates.r_ma, rates.r_bar_1r, rates.r_bar_2r, bc[1], bc[2]),
        bc_rates=(bc[1], bc[2]),
        step_trace=tuple(trace),
        efficient=bool(bc[1] + bc[2] >= best_bc - TIE_TOL),
        source_waste=bool(pr_max < ledger.p_bar_ma - TIE_TOL),
    )


def classify_case(ledger: ThresholdLedger, levels: RelativeLevels, pr_max: float) -> tuple[int, ...]:
    """Predicted step path from the budget/threshold table alone.

    Independent of optimize's internal state; used as a conformance oracle
    for step_trace. Ties within 1e-9 W of a threshold resolve downward
    (the same orientation the optimizer's level comparisons use).
    """
    if ledger.case_symmetric:
        if pr_max <= ledger.p_l + TIE_TOL:
            return (1, 2, 6)
        if pr_max <= ledger.p_t + TIE_TOL:
            return (1, 2, 3, 4, 6)
        if pr_max <= ledger.p_s + TIE_TOL:
            return (1, 2, 3, 4, 5, 6)
        return (1, 2, 3, 5, 6)
    if pr_max <= ledger.p_l + TIE_TOL:
        return (1, 2, 6)
    if pr_max <= ledger.p_bar_ma + TIE_TOL:
        return (1, 2, 3, 4, 6)
    if pr_max <= ledger.p_t + TIE_TOL:
        return (1, 2, 3, 4, 6, 7)
    if pr_max <= ledger.p_s + TIE_TOL:
        return (1, 2, 3, 4, 5, 6, 7)
    return (1, 2, 3, 5, 6, 7)
