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
all maximizers, consumes the least relay power. Rates are valid up to the
edge r_ma = r_bar_1r + r_bar_2r (within 1e-12 nats), where the MA ceiling
is redundant and step 7 never fires.

optimize_many runs the procedure on N instances at once, every branch a
per-row mask or a row of one branch table, with one water-fill kernel
call per stage for the whole batch (Palomar & Fonollosa, "Practical
algorithms for a family of waterfilling solutions", IEEE T-SP 2005, for
the exact finite-step kernels). It takes N SubchannelGains or their
columns (a GainColumns), N SourceRates or their columns (a
SourceStrategies' rates) and returns RelaySolutions, the solutions'
columns, whose item i is a RelaySolution built on access; optimize
builds its one row directly. One ledger derives the levels of a batch
and what the engine reads besides: the powers of both directions at
their caps, p_bar_ma, the case and the tie slack. optimize,
relative_levels and thresholds are N=1 views of it and of the engine;
thresholds adds the pooled powers p_ma, p_l and p_s and p_t, which the
engine never reads. The ledger reads the levels and power sums of the
public inverse_waterfill (the benchmark's self-test pins that call, and
the rate_of_level call inside it, whose rate the ledger does not read)
and prepares the batch's gain table (the same table from a GainColumns
as from the SubchannelGains of its rows) for the forward water-fill once
(inverse gains, their cumulative sums, the activation thresholds); the
engine's forward passes, rates, power sums and per-subchannel powers run
through waterfill's unchecked cores (the rate core waterfill._rate_core
picks from the largest level and gain). Inputs are checked once,
on entry: a SourceRates by its own constructor, so its floats go straight
into the targets; rate columns and other rate objects by SourceRates'
rule; then the rate order; budgets by waterfill._per_instance.

Branch tests allow a slack so that exact-tie instances do not chatter
between paths. Level and power comparisons allow TIE_TOL times the
instance's lowest activation level 1/alpha_max, so the path does not
depend on the units; rate comparisons allow TIE_TOL nats.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import GainColumns, SubchannelGains
from .errors import InvalidStrategyError
from .ma_phase import SourceRates, _valid_rates
from .waterfill import (_QUIET, _arange, _budget_bound, _checked, _level, _per_instance, _power, _powers, _prepare,
                        _rate_core, _sum, gain_table, inverse_waterfill)

__all__ = [
    "RelativeLevels",
    "ThresholdLedger",
    "RelaySolution",
    "RelaySolutions",
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

    Also takes a stack of V factors (N, n_r, n_r) with powers (N, K). Raises
    ValueError unless every power is finite and nonnegative (waterfill._checked).
    """
    powers = _checked(powers, "powers")
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
# so on). Every branch of the seven steps is a per-row mask or a row of
# the branch table below.

# Rows of the engine's candidate levels: the forward fills, then the
# ledger's levels (row 5 is mu_ma).
_REFILL1, _REFILL2, _LAM, _CAP1, _CAP2, _BAR1, _BAR2 = 0, 1, 2, 3, 4, 6, 7


def _branch(code: int) -> tuple:
    """Candidate rows of the levels of directions 1 and 2 after steps 3-5,
    and the steps among them visited, on branch code `code`.

    The code's bits compare a fill with a cap plus the slack: lam with cap1
    (1) and with cap2 (2), refill1 with cap1 (4), refill2 with cap2 (8),
    each set when the fill does not exceed it. Above either cap, the
    direction with the smaller cap, the violator a, is clipped (step 3) and
    the other, b, re-spends the rest (step 4) unless lam overshoots its cap
    too; b is clipped (step 5) where lam or its refill overshoots.
    """
    lam_fits1, lam_fits2, refill_fits1, refill_fits2 = (bool(code & bit) for bit in (1, 2, 4, 8))
    if lam_fits1 and lam_fits2:
        return (_LAM, _LAM), ()
    if not (lam_fits1 or lam_fits2):
        return (_CAP1, _CAP2), (3, 5)
    if lam_fits2:  # a = 1: cap1 is the smaller
        return ((_CAP1, _REFILL2), (3, 4)) if refill_fits2 else ((_CAP1, _CAP2), (3, 4, 5))
    return ((_REFILL1, _CAP2), (3, 4)) if refill_fits1 else ((_CAP1, _CAP2), (3, 4, 5))


_BRANCHES = [_branch(code) for code in range(16)]
# Per code, the candidate rows of [[level1, bar1], [level2, bar2]], (2, 2, 16).
_PICKS = np.array([[[rows[d] for rows, _ in _BRANCHES], [bar] * 16] for d, bar in ((0, _BAR1), (1, _BAR2))])
# Code bit of each fill (refill1, refill2, lam) against cap1, then against cap2.
_FIT_BITS = np.array([4, 0, 1, 0, 8, 2])
# Step trace by code + 16 * (step 7 taken).
_TRACES = [(1, 2) + steps + (6,) + cut for cut in ((), (7,)) for _, steps in _BRANCHES]


def _targets(rates) -> np.ndarray:
    """r_bar_2r, r_bar_1r, r_ma, (r_ma - r_bar_1r)^+ and (r_ma - r_bar_2r)^+
    of each instance, (5, N): the rates of the gain table's five blocks.

    Takes N SourceRates, which their constructor checked, or other objects
    with the three rates, checked here by becoming SourceRates; or their
    columns (3, N) r_ma, r_bar_1r, r_bar_2r (a SourceStrategies' rates),
    checked by SourceRates' rule, so a dropped row's NaN fails.
    """
    if isinstance(rates, np.ndarray):
        r_ma, r1, r2 = _valid_rates(rates)
        return np.array([r2, r1, r_ma, np.maximum(r_ma - r1, 0.0), np.maximum(r_ma - r2, 0.0)])
    rates = (r if isinstance(r, SourceRates) else SourceRates(r.r_ma, r.r_bar_1r, r.r_bar_2r) for r in rates)
    rows = [(r.r_bar_2r, r.r_bar_1r, r.r_ma, max(r.r_ma - r.r_bar_1r, 0.0), max(r.r_ma - r.r_bar_2r, 0.0))
            for r in rates]
    return np.array(rows).reshape(-1, 5).T


def _gain_table(gains) -> tuple:
    """The ledger's table of N instances' gains, five zero-padded blocks of N
    rows (alpha1, alpha2, the pooled gains, alpha1, alpha2), and the widest
    alpha1 and alpha2 list. Takes N SubchannelGains or their GainColumns,
    from which it builds the same table: a pooled row is the row's two
    lists merged and sorted descending, its padding last."""
    if not isinstance(gains, GainColumns):
        a1, a2 = [g.alpha1 for g in gains], [g.alpha2 for g in gains]
        return gain_table(a1 + a2 + [g.pooled for g in gains] + a1 + a2), max(map(len, a1)), max(map(len, a2))
    if np.count_nonzero(np.not_equal(gains.reasons, None)):
        raise ValueError("gains must hold no dropped row")
    k1, k2, k = (np.maximum.reduce(c) for c in (gains.counts1, gains.counts2, gains.counts1 + gains.counts2))
    a1, a2 = gains.alpha1[:, :k1], gains.alpha2[:, :k2]
    table = np.zeros((5, len(gains), k))
    table[[0, 3], :, :k1], table[[1, 4], :, :k2] = a1, a2
    table[2] = np.sort(np.concatenate((a1, a2), axis=1), axis=1)[:, ::-1][:, :k]
    return table.reshape(-1, k), k1, k2


@_QUIET
def _ledger(gains, targets) -> tuple:
    """The batch's prepared gains and what the engine reads of each instance.

    Returns the alpha1, alpha2 and pooled blocks, each cut to its widest
    list; the forward preparation of the three blocks, (3N, K) each, and
    of the pooled block, (N, K) each; the levels cap1, cap2, mu_ma, bar1,
    bar2 (5, N); the power each forward pass holds back, alpha2 at cap2
    and alpha1 at cap1 for the two refills and none for step 1 (3, N);
    p_bar_ma, case_symmetric and the slack TIE_TOL / alpha_max, (N,) each.
    """
    n = len(gains)
    table, k1, k2 = _gain_table(gains)
    blocks = table[:n, :k1], table[n : 2 * n, :k2], table[2 * n : 3 * n]
    ceilings = inverse_waterfill(table, targets.reshape(-1))
    levels = ceilings.level.reshape(5, n)
    total = ceilings.total_power.reshape(5, n)  # each row's power sum; its padded cells add +0.0
    p1, p2 = total[0::3], total[1::3]  # alpha1 at cap1 and at bar1; alpha2 at cap2 and at bar2
    held = np.array([p2[0], p1[0], np.zeros(n)])
    cap1, cap2, mu_ma = levels[:3]
    slack = TIE_TOL / blocks[2][:, 0]
    symmetric = mu_ma <= np.minimum(cap1, cap2) + slack
    crossed = p1 + p2[::-1]  # one direction at its cap, the other at its bar level
    p_bar_ma = np.where(cap1 >= cap2, crossed[1], crossed[0])
    p_bar_ma = np.where(symmetric, total[2], p_bar_ma)
    prepared = _prepare(table[: 3 * n])
    pooled = prepared[0][2 * n :], prepared[1][2 * n :], prepared[2][2 * n :]
    return blocks, prepared, pooled, levels, held, p_bar_ma, symmetric, slack


def relative_levels(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> RelativeLevels:
    """Convert the three rate ceilings and the budget into water levels."""
    pr = _per_instance(pr_max, 1, "pr_max", noun="budget")
    _, _, pooled, levels, *_ = _ledger([gains], _targets([strategy]))
    cap1, cap2, mu_ma = levels[:3, 0].tolist()
    lam = _level(pooled, pr)
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
    _, _, pooled, ledger_levels, held, p_bar_ma, symmetric, slack = _ledger([gains], _targets([strategy]))
    cap1, cap2, mu_ma = ledger_levels[:3]
    pooled_powers = _power(pooled[0], np.array([mu_ma, np.minimum(cap1, cap2), np.maximum(cap1, cap2)]))
    p_ma, p_l, p_s = pooled_powers[:, 0].tolist()
    p_t = float(held[0, 0] + held[1, 0])  # alpha1 at cap1 plus alpha2 at cap2
    return ThresholdLedger(p_ma, p_l, p_t, p_s, float(p_bar_ma[0]), bool(symmetric[0]), float(slack[0]))


def _steps_3_to_5(fills: np.ndarray, levels: np.ndarray, slack: np.ndarray) -> tuple:
    """Levels [[level1, bar1], [level2, bar2]] after steps 3-5, (2, 2, N), and
    the branch codes (N,) of the fills (refill1, refill2, lam), (3, N), that
    pick them (see _branch)."""
    fits = fills <= (levels[:2] + slack)[:, np.newaxis]
    code = np.dot(_FIT_BITS, fits.reshape(6, -1))
    return np.concatenate((fills, levels))[_PICKS.take(code, axis=-1), _arange(code.size)], code


class RelaySolutions(Sequence):
    """N instances' relay solutions as columns: levels, bc_rates (2, N); powers1,
    powers2 (N, K) zero-padded; consumed_power, sum_rate_tw, efficient,
    source_waste, step_codes (indices of the step paths) (N,); gains, as
    given (item i's SubchannelGains is built on access from a GainColumns)."""

    __slots__ = ("gains", "_columns", "levels", "powers1", "powers2", "consumed_power", "bc_rates",
                 "sum_rate_tw", "step_codes", "efficient", "source_waste")

    def __init__(self, gains, columns: tuple) -> None:
        self.gains, self._columns = gains, columns
        (self.levels, self.powers1, self.powers2, self.consumed_power, self.bc_rates, self.sum_rate_tw,
         self.step_codes, self.efficient, self.source_waste) = columns

    def __len__(self) -> int:
        return len(self.gains)

    def __getitem__(self, i: int) -> RelaySolution:
        return _solution(self.gains[i], self._columns, i)


def _solution(gains: SubchannelGains, columns, i: int) -> RelaySolution:
    """Row i of the engine's columns as a RelaySolution of its gains."""
    lv, powers1, powers2, consumed, bc, sum_rate, code, efficient, waste = columns
    return RelaySolution(
        lv.item(0, i), lv.item(1, i), powers1[i, : gains.alpha1.size], powers2[i, : gains.alpha2.size], gains,
        consumed.item(i), sum_rate.item(i), (bc.item(0, i), bc.item(1, i)), _TRACES[code.item(i)],
        efficient.item(i), waste.item(i),
    )


def _solve(gains, rates, pr_max) -> tuple:
    """The engine: the columns of optimize_many's solutions, in RelaySolutions' order."""
    n, targets = len(gains), _targets(rates)
    if targets.shape[1] != n:
        raise ValueError("gains and rates must have one entry per instance")
    if not n:  # the columns of no instance
        empty = np.empty((2, 0))
        return empty, *np.empty((2, 0, 0)), empty[0], empty, empty[0], np.zeros(0, int), *np.zeros((2, 0), bool)
    r2, r1, r_ma = targets[:3]
    # At r_ma = r_bar_1r + r_bar_2r the MA ceiling is redundant: step 7 never fires.
    if np.count_nonzero(r_ma - (r1 + r2) > 1e-12):
        raise InvalidStrategyError("r_ma cannot exceed r_bar_1r + r_bar_2r")
    if np.count_nonzero(r_ma < np.maximum(r1, r2) - 1e-12):
        raise InvalidStrategyError("r_ma cannot be below either single-user rate")
    pr = _per_instance(pr_max, n, "pr_max", noun="budget")
    (a1, a2, pooled), prepared, pooled_prepared, levels, held, p_bar_ma, _, slack = _ledger(gains, targets)

    # Step 1 on the pooled gains, and step 4 for either order: only the
    # direction with the smaller ceiling can be the (first) violator; it is
    # clipped to its cap and the other direction re-spends the remainder.
    fills = _level(prepared, np.maximum(pr - held, 0.0).reshape(-1)).reshape(3, n)
    chosen, code = _steps_3_to_5(fills, levels, slack)
    # Every later level, the consumed power's pooled one too, is within the slack of the largest chosen one.
    rate = _rate_core((np.maximum.reduce(chosen, axis=None), np.maximum.reduce(pooled[:, 0])))

    # Step 6, then step 7 where the broadcast rate sum overshoots r_ma.
    lv, mu_ma = chosen[:, 0], levels[2]
    pinned = np.minimum(lv[0], lv[1]) >= mu_ma - slack
    below = np.maximum(lv[0], lv[1]) <= mu_ma + slack
    if np.count_nonzero(pinned):
        lv[:] = np.where(pinned, mu_ma, lv)
    rates_at = np.array([rate(a1, chosen[0]), rate(a2, chosen[1])])  # at each level and bar level
    bc = rates_at[:, 0]
    cut = (bc[0] + bc[1] > r_ma + TIE_TOL) & ~(pinned | below)
    if np.count_nonzero(cut):
        higher1 = lv[0] > lv[1]
        cuts = cut & np.array([higher1, ~higher1])
        lv, bc = np.where(cuts, chosen[:, 1], lv), np.where(cuts, rates_at[:, 1], bc)

    # A row whose powers overspend the budget beyond the relative 1e-12 of
    # every budget test lowers both levels by the excess over its active
    # subchannels, by an ulp at least, until it fits. At low SNR a level
    # near 1/alpha has an ulp above the budget's, and a pinned pair sits up
    # to the slack above its fill.
    inv, limit = prepared[0], _budget_bound(pr)
    while True:
        powers1, powers2 = _powers(inv[:n, : a1.shape[1]], lv[0]), _powers(inv[n : 2 * n, : a2.shape[1]], lv[1])
        consumed = _sum(powers1) + _sum(powers2)
        over = consumed > limit
        if not np.count_nonzero(over):
            break
        active = np.count_nonzero(powers1, axis=-1) + np.count_nonzero(powers2, axis=-1)
        lower = np.minimum(lv - (consumed - pr) / np.maximum(active, 1), np.nextafter(lv, -np.inf))
        lv = np.where(over, lower, lv)
        bc = np.where(over, [rate(a1, lv[0]), rate(a2, lv[1])], bc)
    best_bc = rate(pooled, _level(pooled_prepared, consumed))
    efficient = bc[0] + bc[1] >= best_bc - TIE_TOL
    source_waste = pr < p_bar_ma - slack
    sum_rate = two_way_rate(r_ma, r1, r2, bc[0], bc[1])
    return lv, powers1, powers2, consumed, bc, sum_rate, code + 16 * cut, efficient, source_waste


def optimize_many(gains, rates, pr_max) -> RelaySolutions:
    """Run the seven-step allocation on N instances at once.

    gains is a sequence of N SubchannelGains or their GainColumns (none
    of its rows dropped), rates N SourceRates or their columns (3, N)
    r_ma, r_bar_1r, r_bar_2r (a SourceStrategies' rates); pr_max is one
    budget (watts) for all or one per instance. Columns give the bits of
    their rows' SubchannelGains, without building them.
    Returns their RelaySolutions, whose item i is instance i's solution,
    equal bit for bit to the instance's own solve in any batch (every sum
    adds a row's own terms in order, see waterfill). Raises
    InvalidStrategyError if any instance's rates are invalid (r_ma above
    r_bar_1r + r_bar_2r or below either, beyond 1e-12 nats), and ValueError
    if any budget is negative or non-finite, the lengths differ or a
    GainColumns row was dropped.

    Steps: (1) water-fill the full budget on the pooled gains; (2) if some
    direction sits above its ceiling level, (3) clip the tighter direction
    to its ceiling and (4) re-spend the freed power in the other
    direction, (5) clipping it too if it overshoots its own ceiling;
    (6) if both levels reached 1/mu_ma drop them to 1/mu_ma exactly, and
    otherwise accept the pair unless its broadcast rate sum exceeds r_ma,
    in which case (7) the higher level is lowered through the closed-form
    inverse water-fill so the sum lands on r_ma exactly. The powers never
    exceed the budget by more than a relative 1e-12.
    """
    return RelaySolutions(gains, _solve(gains, rates, pr_max))


def optimize(gains: SubchannelGains, strategy: SourceRates, pr_max: float) -> RelaySolution:
    """Run the seven-step allocation and package the optimal solution.

    The N=1 view of optimize_many, which lists the steps.
    """
    return _solution(gains, _solve([gains], [strategy], pr_max), 0)


def classify_case(ledger: ThresholdLedger, levels: RelativeLevels, pr_max: float) -> tuple[int, ...]:
    """Predicted step path from the budget/threshold table alone.

    Independent of optimize's internal state; used as a conformance oracle
    for step_trace. Ties within the ledger's slack of a threshold resolve
    downward (the same orientation the optimizer's level comparisons use).
    `levels` is not read: the ledger holds every threshold the path needs
    (the benchmark's checks pass it). Raises ValueError if the budget is
    negative or non-finite (waterfill._checked).
    """
    _checked(pr_max, "pr_max")
    slack = ledger.slack
    # Step 7 only in the asymmetric case, and not at p_bar_ma >= p_t, the
    # edge r_ma = r_bar_1r + r_bar_2r.
    cut = () if ledger.case_symmetric or ledger.p_bar_ma >= ledger.p_t - slack else (7,)
    if pr_max <= ledger.p_l + slack:
        return (1, 2, 6)
    if not ledger.case_symmetric and pr_max <= ledger.p_bar_ma + slack:
        return (1, 2, 3, 4, 6)
    if pr_max <= ledger.p_t + slack:
        return (1, 2, 3, 4, 6) + cut
    if pr_max <= ledger.p_s + slack:
        return (1, 2, 3, 4, 5, 6) + cut
    return (1, 2, 3, 5, 6) + cut
