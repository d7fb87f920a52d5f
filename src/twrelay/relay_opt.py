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

optimize_many runs the procedure on N instances at once, every branch a
per-row mask, with one water-fill kernel call per stage for the whole
batch (Palomar & Fonollosa, "Practical algorithms for a family of
waterfilling solutions", IEEE T-SP 2005, for the exact finite-step
kernels). One ledger derives the levels, the budget thresholds and the
tie slack of a batch; optimize, relative_levels and thresholds are N=1
views of it and of the engine. The ledger prepares the batch's gain
table for the forward water-fill once (inverse gains, their cumulative
sums, the activation thresholds); the engine's forward passes, power
sums and per-subchannel powers read that preparation through waterfill's
unchecked cores, as budgets and rates are checked once, on entry.

Branch tests allow a slack so that exact-tie instances do not chatter
between paths. Level and power comparisons allow TIE_TOL times the
instance's lowest activation level 1/alpha_max, so the path does not
depend on the units; rate comparisons allow TIE_TOL nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SubchannelGains
from .errors import InvalidStrategyError
from .ma_phase import SourceRates
from .waterfill import _level, _power, _powers, _prepared, gain_table, inverse_waterfill, rate_of_level

__all__ = [
    "SourceRates",
    "RelativeLevels",
    "ThresholdLedger",
    "RelaySolution",
    "relative_levels",
    "thresholds",
    "optimize",
    "optimize_many",
    "classify_case",
    "relay_covariance",
    "two_way_rate",
]

# Relative slack of level and power comparisons, absolute (nats) of rate
# comparisons, in branch tests.
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
    p_ma in the symmetric case). slack is the instance's tie slack in
    watts, TIE_TOL / alpha_max: levels and budgets within it of each other
    count as equal.
    """

    p_ma: float
    p_l: float
    p_t: float
    p_s: float
    p_bar_ma: float
    case_symmetric: bool
    slack: float


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class RelaySolution:
    """Optimal relay allocation plus bookkeeping.

    level1/level2 are the per-direction water levels 1/lambda_i; powers
    align with the sorted gain lists; gains is the instance solved, and
    b1/b2, the n_r x n_r relay covariances, are built from it on each
    access; bc_rates are the raw broadcast rates per direction;
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
    gains: SubchannelGains
    consumed_power: float
    sum_rate_tw: float
    bc_rates: tuple[float, float]
    step_trace: tuple[int, ...]
    efficient: bool
    source_waste: bool

    @property
    def b1(self) -> np.ndarray:
        """Relay covariance of direction 1."""
        return relay_covariance(self.gains.v1, self.powers1)

    @property
    def b2(self) -> np.ndarray:
        """Relay covariance of direction 2."""
        return relay_covariance(self.gains.v2, self.powers2)


def two_way_rate(r_ma, r_bar_1r, r_bar_2r, bc1, bc2):
    """Two-way sum rate in nats, including the 1/2 two-slot factor (floats or arrays)."""
    forwarded = np.minimum(bc1, r_bar_2r) + np.minimum(bc2, r_bar_1r)
    return 0.5 * np.minimum(r_ma, forwarded)


def relay_covariance(v_factor: np.ndarray, powers) -> np.ndarray:
    """Relay transmit covariance V diag(powers, 0, ...) V^H for one direction.

    Also takes a stack of V factors (N, n_r, n_r) with powers (N, K).
    """
    powers = np.asarray(powers, dtype=float)
    diag = np.zeros(v_factor.shape[:-1])
    diag[..., : powers.shape[-1]] = powers
    return (v_factor * diag[..., np.newaxis, :]) @ v_factor.conj().swapaxes(-1, -2)


# The batch engine. The gains of N instances sit in one zero-padded table
# of five blocks of N rows: alpha1, alpha2, the pooled gains, then alpha1
# and alpha2 again. One inverse water-fill over the whole table (in
# _ledger) finds, block by block, the level on alpha1 whose rate is
# r_bar_2r (1/mu_2, the cap of direction 1), on alpha2 for r_bar_1r (1/mu_1,
# the cap of direction 2), on the pooled gains for r_ma (1/mu_ma), and the
# levels that p_bar_ma and step 7 need: alpha1 for r_ma - r_bar_1r and
# alpha2 for r_ma - r_bar_2r.
# One forward pass over the first three blocks, prepared once in the
# ledger, finds the step-1 level and both step-4 candidates. A kind's sums
# run over its own columns only (alpha1 over the widest alpha1 list, and
# so on). Every branch of the seven steps is a per-row mask.

# Step trace by branch code: step 3 (1), step 4 (2), step 5 (4), step 7 (8).
_TRACES = [
    (1, 2) + tuple(s for bit, s in ((1, 3), (2, 4), (4, 5)) if code & bit) + (6,) + ((7,) if code & 8 else ())
    for code in range(16)
]


def _rates(rates) -> np.ndarray:
    """r_ma, r_bar_1r, r_bar_2r of each instance, (3, N)."""
    return np.array([[r.r_ma for r in rates], [r.r_bar_1r for r in rates], [r.r_bar_2r for r in rates]])


def _budgets(pr_max, n: int) -> np.ndarray:
    pr = np.zeros(n) + pr_max
    if not 0.0 <= pr.min() <= pr.max() < np.inf:  # NaN fails too
        raise ValueError("pr_max must be finite and nonnegative")
    return pr


def _ledger(gains, r_ma, r1, r2) -> tuple:
    """The batch's prepared gains and, per instance, its levels, thresholds and tie slack.

    Returns the alpha1, alpha2 and pooled blocks, each cut to its widest
    list; the forward preparation of the three blocks, (3N, K) each, and
    its pooled rows; the levels cap1, cap2, mu_ma, bar1, bar2 (5, N); the powers p1 (alpha1 at
    cap1), p2 (alpha2 at cap2), p_ma, p_l, p_t, p_s, p_bar_ma (7, N);
    case_symmetric (N,); and the slack TIE_TOL / alpha_max (N,).
    """
    n = len(gains)
    a1, a2 = [g.alpha1 for g in gains], [g.alpha2 for g in gains]
    table = gain_table(a1 + a2 + [g.pooled for g in gains] + a1 + a2)
    k1, k2 = max(a.size for a in a1), max(a.size for a in a2)
    blocks = table[:n, :k1], table[n : 2 * n, :k2], table[2 * n : 3 * n]
    targets = np.concatenate([r2, r1, r_ma, np.maximum(r_ma - r1, 0.0), np.maximum(r_ma - r2, 0.0)])
    ceilings = inverse_waterfill(table, targets)
    levels = ceilings.level.reshape(5, n)
    cap1, cap2, mu_ma = levels[:3]
    cell_powers = ceilings.powers.reshape(5, n, -1)
    p1 = cell_powers[0::3, :, :k1].sum(axis=-1)  # alpha1 at cap1 and at bar1
    p2 = cell_powers[1::3, :, :k2].sum(axis=-1)  # alpha2 at cap2 and at bar2
    p_ma = cell_powers[2].sum(axis=-1)
    prepared = _prepared(table[: 3 * n])
    on_pooled = tuple(a[2 * n :] for a in prepared)
    low, high = np.minimum(cap1, cap2), np.maximum(cap1, cap2)
    p_l, p_s = _power(on_pooled[0], np.array([low, high]))
    slack = TIE_TOL / blocks[2][:, 0]
    symmetric = mu_ma <= low + slack
    p_bar_ma = np.where(symmetric, p_ma, np.where(cap1 >= cap2, p1[1] + p2[0], p1[0] + p2[1]))
    powers = np.array([p1[0], p2[0], p_ma, p_l, p1[0] + p2[0], p_s, p_bar_ma])
    return blocks, prepared, on_pooled, levels, powers, symmetric, slack


def relative_levels(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> RelativeLevels:
    """Convert the three rate ceilings and the budget into water levels."""
    pr = _budgets(pr_max, 1)
    _, _, on_pooled, levels, *_ = _ledger([gains], *_rates([strategy]))
    cap1, cap2, mu_ma = levels[:3, 0].tolist()
    lam = _level(on_pooled, pr)
    return RelativeLevels(inv_mu1=cap2, inv_mu2=cap1, inv_mu_ma=mu_ma, inv_lambda0=float(lam[0]))


def thresholds(gains: SubchannelGains, levels: RelativeLevels, strategy: SourceRates) -> ThresholdLedger:
    """Budget thresholds of the instance.

    p_ma / p_l / p_s are pooled water-fill powers at the levels 1/mu_ma,
    min(1/mu_1, 1/mu_2) and max(1/mu_1, 1/mu_2). p_t is the power with both
    per-direction ceilings exactly tight (1/mu_2 on alpha_1 and 1/mu_1 on
    alpha_2). In the asymmetric case p_bar_ma pins the tight direction at
    its ceiling and gives the loose direction d the level whose rate is
    r_ma - r_bar_dr. `levels` is not read: the ledger derives the same
    levels relative_levels returns, bit for bit.
    """
    *_, powers, symmetric, slack = _ledger([gains], *_rates([strategy]))
    _, _, p_ma, p_l, p_t, p_s, p_bar_ma = powers[:, 0].tolist()
    return ThresholdLedger(p_ma, p_l, p_t, p_s, p_bar_ma, bool(symmetric[0]), float(slack[0]))


def optimize_many(gains, rates, pr_max) -> list[RelaySolution]:
    """Run the seven-step allocation on N instances at once.

    gains and rates are sequences of N SubchannelGains and SourceRates;
    pr_max is one budget (watts) for all or one per instance. Returns one
    RelaySolution per instance, in order, each equal bit for bit to the
    instance's own solve whenever every gain kind of the batch is narrower
    than 8 subchannels or the same width in every instance (see waterfill).
    Raises InvalidStrategyError if any instance's rates are invalid, and
    ValueError if any budget is negative or non-finite or the lengths differ.

    Steps: (1) water-fill the full budget on the pooled gains; (2) if some
    direction sits above its ceiling level, (3) clip the tighter direction
    to its ceiling and (4) re-spend the freed power in the other
    direction, (5) clipping it too if it overshoots its own ceiling;
    (6) if both levels reached 1/mu_ma drop them to 1/mu_ma exactly, and
    otherwise accept the pair unless its broadcast rate sum exceeds r_ma,
    in which case (7) the higher level is lowered through the closed-form
    inverse water-fill so the sum lands on r_ma exactly.
    """
    n = len(gains)
    if len(rates) != n:
        raise ValueError("gains and rates must have one entry per instance")
    if not n:
        return []
    r_ma, r1, r2 = _rates(rates)
    if (r_ma - (r1 + r2) > -1e-12).any():
        raise InvalidStrategyError("r_ma must be strictly below r_bar_1r + r_bar_2r")
    if (r_ma < np.maximum(r1, r2) - 1e-12).any():
        raise InvalidStrategyError("r_ma cannot be below either single-user rate")
    pr = _budgets(pr_max, n)
    (a1, a2, pooled), prepared, on_pooled, levels, powers, _, slack = _ledger(gains, r_ma, r1, r2)
    inv = prepared[0]
    cap1, cap2, mu_ma, bar1, bar2 = levels
    p1, p2, *_, p_bar_ma = powers

    # Step 1 on the pooled gains, and step 4 for either order: only the
    # direction with the smaller ceiling can be the (first) violator; it is
    # clipped to its cap and the other direction re-spends the remainder.
    spare = np.maximum(pr - np.array([p2, p1]), 0.0)
    refill1, refill2, lam = _level(prepared, np.concatenate([*spare, pr])).reshape(3, n)
    first1 = cap1 <= cap2  # direction 1 is the violator a, 2 is b

    # Steps 3-5: the violator a is clipped to its cap; b takes its refill,
    # or its own cap where the refill (or lam itself) overshoots it.
    loose_b = np.maximum(cap1, cap2) + slack
    clip = lam > np.minimum(cap1, cap2) + slack
    refill = clip & (lam <= loose_b)
    reclip = clip & ~(refill & (np.where(first1, refill2, refill1) <= loose_b))
    lv1 = np.where(clip, np.where(first1 | reclip, cap1, refill1), lam)
    lv2 = np.where(clip, np.where(~first1 | reclip, cap2, refill2), lam)

    # Step 6, then step 7 where the broadcast rate sum overshoots r_ma.
    pinned = np.minimum(lv1, lv2) >= mu_ma - slack
    below = np.maximum(lv1, lv2) <= mu_ma + slack
    if pinned.any():
        lv1, lv2 = np.where(pinned, mu_ma, lv1), np.where(pinned, mu_ma, lv2)
    bc1, bar_bc1 = rate_of_level(a1, np.array([lv1, bar1]))
    bc2, bar_bc2 = rate_of_level(a2, np.array([lv2, bar2]))
    cut = ~(pinned | below) & (bc1 + bc2 > r_ma + TIE_TOL)
    if cut.any():
        cut1 = cut & (lv1 > lv2)
        cut2 = cut & ~cut1
        lv1, bc1 = np.where(cut1, bar1, lv1), np.where(cut1, bar_bc1, bc1)
        lv2, bc2 = np.where(cut2, bar2, lv2), np.where(cut2, bar_bc2, bc2)

    powers1, powers2 = _powers(inv[:n, : a1.shape[1]], lv1), _powers(inv[n : 2 * n, : a2.shape[1]], lv2)
    consumed = powers1.sum(axis=-1) + powers2.sum(axis=-1)
    best_bc = rate_of_level(pooled, _level(on_pooled, consumed))
    efficient = bc1 + bc2 >= best_bc - TIE_TOL
    source_waste = pr < p_bar_ma - slack
    sum_rate = two_way_rate(r_ma, r1, r2, bc1, bc2)
    steps = zip(clip.tolist(), refill.tolist(), reclip.tolist(), cut.tolist())
    return list(map(
        RelaySolution, lv1.tolist(), lv2.tolist(),
        [p[: g.alpha1.size] for p, g in zip(powers1, gains)],
        [p[: g.alpha2.size] for p, g in zip(powers2, gains)],
        gains, consumed.tolist(), sum_rate.tolist(),
        zip(bc1.tolist(), bc2.tolist()), [_TRACES[s3 + 2 * s4 + 4 * s5 + 8 * s7] for s3, s4, s5, s7 in steps],
        efficient.tolist(), source_waste.tolist(),
    ))


def optimize(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> RelaySolution:
    """Run the seven-step allocation and package the optimal solution.

    The N=1 view of optimize_many, which lists the steps.
    """
    return optimize_many([gains], [strategy], pr_max)[0]


def classify_case(ledger: ThresholdLedger, levels: RelativeLevels, pr_max: float) -> tuple[int, ...]:
    """Predicted step path from the budget/threshold table alone.

    Independent of optimize's internal state; used as a conformance oracle
    for step_trace. Ties within the ledger's slack of a threshold resolve
    downward (the same orientation the optimizer's level comparisons use).
    """
    slack = ledger.slack
    if ledger.case_symmetric:
        if pr_max <= ledger.p_l + slack:
            return (1, 2, 6)
        if pr_max <= ledger.p_t + slack:
            return (1, 2, 3, 4, 6)
        if pr_max <= ledger.p_s + slack:
            return (1, 2, 3, 4, 5, 6)
        return (1, 2, 3, 5, 6)
    if pr_max <= ledger.p_l + slack:
        return (1, 2, 6)
    if pr_max <= ledger.p_bar_ma + slack:
        return (1, 2, 3, 4, 6)
    if pr_max <= ledger.p_t + slack:
        return (1, 2, 3, 4, 6, 7)
    if pr_max <= ledger.p_s + slack:
        return (1, 2, 3, 4, 5, 6, 7)
    return (1, 2, 3, 5, 6, 7)
