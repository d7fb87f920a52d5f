"""Grid oracle: frozen examples, naive-scan equivalence, convergence."""

import dataclasses

import numpy as np
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay.oracle import RATE_TIE, _axes
from twrelay.waterfill import gain_table, inverse_level, power_of_level, rate_of_level

from conftest import random_gain_list, random_synthetic_rates, searchsorted_forward_level

LN2, LN3, LN6 = np.log(2.0), np.log(3.0), np.log(6.0)


def unit_gains():
    return tw.synthetic_gains([1.0], [1.0])


def test_symmetric_worked_instance():
    rates = tw.SourceRates(r_ma=LN3, r_bar_1r=LN2, r_bar_2r=LN2)
    res = tw.grid_certify(unit_gains(), rates, 2.0, 1e-3)
    assert_allclose(res.best_rate, 0.5 * LN3, atol=1e-9)
    assert_allclose(res.min_power_at_best, 2.0 * (np.sqrt(3.0) - 1.0), atol=1e-6)


def test_asymmetric_worked_instance():
    rates = tw.SourceRates(r_ma=LN6, r_bar_1r=np.log(4.0), r_bar_2r=LN2)
    res = tw.grid_certify(unit_gains(), rates, 6.0, 1e-3)
    assert_allclose(res.best_rate, 0.5 * LN6, atol=1e-9)
    assert_allclose(res.min_power_at_best, 3.0, atol=1e-6)


def test_zero_budget():
    rates = tw.SourceRates(r_ma=LN6, r_bar_1r=np.log(4.0), r_bar_2r=LN2)
    res = tw.grid_certify(unit_gains(), rates, 0.0, 1e-3)
    assert res.best_rate == 0.0
    assert res.min_power_at_best == 0.0
    base1, base2 = res.baseline_levels
    assert power_of_level([1.0], base1) == 0.0
    assert power_of_level([1.0], base2) == 0.0


def test_never_exceeds_half_ma_rate(rng):
    for _ in range(20):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        res = tw.grid_certify(g, rates, float(rng.uniform(0.0, 8.0)), 0.01)
        assert res.best_rate <= 0.5 * rates.r_ma + 1e-12


def _naive_scan(gains, rates, pr_max, resolution):
    """Exhaustive feasible-pair enumeration over the same axes."""
    (axis1, axis2), _ = _axes(gains, rates, pr_max, resolution)
    p1 = power_of_level(gains.alpha1, axis1)
    p2 = power_of_level(gains.alpha2, axis2)
    r1 = rate_of_level(gains.alpha1, axis1)
    r2 = rate_of_level(gains.alpha2, axis2)
    m1 = np.minimum(r1, rates.r_bar_2r)
    m2 = np.minimum(r2, rates.r_bar_1r)
    power = p1[:, None] + p2[None, :]
    feasible = power <= pr_max + 1e-12
    rtw = 0.5 * np.minimum(rates.r_ma, m1[:, None] + m2[None, :])
    rtw = np.where(feasible, rtw, -np.inf)
    best = float(np.max(rtw))
    toppers = rtw >= best - 1e-9
    min_power = float(np.min(np.where(toppers, power, np.inf)))
    # Baseline: max power among toppers, then max raw sum.
    max_power = float(np.max(np.where(toppers, power, -np.inf)))
    full = toppers & (power >= max_power - 1e-12)
    bc = r1[:, None] + r2[None, :]
    best_bc = float(np.max(np.where(full, bc, -np.inf)))
    return best, min_power, max_power, best_bc


def test_matches_naive_pair_enumeration(rng):
    for _ in range(12):
        g = tw.synthetic_gains(random_gain_list(rng, 3), random_gain_list(rng, 3))
        rates = random_synthetic_rates(rng)
        pr = float(rng.uniform(0.2, 4.0))
        res = tw.grid_certify(g, rates, pr, 0.05)
        best, min_power, max_power, best_bc = _naive_scan(g, rates, pr, 0.05)
        assert abs(res.best_rate - best) < 1e-12
        assert abs(res.min_power_at_best - min_power) < 1e-9
        assert abs(max_power - pr) < 1e-9  # a full-power topper always exists
        got_bc = sum(res.baseline_bc_rates)
        assert abs(got_bc - best_bc) < 1e-9


def test_refinement_convergence(rng):
    for _ in range(10):
        g = tw.synthetic_gains(random_gain_list(rng, 3), random_gain_list(rng, 3))
        rates = random_synthetic_rates(rng)
        pr = float(rng.uniform(0.2, 5.0))
        res = 0.02
        a = tw.grid_certify(g, rates, pr, res).best_rate
        b = tw.grid_certify(g, rates, pr, res / 2).best_rate
        assert abs(a - b) <= tw.grid_lipschitz_bound(g, res) + 1e-12


def test_argmax_within_budget(rng):
    for _ in range(15):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        pr = float(rng.uniform(0.0, 6.0))
        res = tw.grid_certify(g, rates, pr, 0.01)
        l1, l2 = res.argmax_levels
        spent = power_of_level(g.alpha1, l1) + power_of_level(g.alpha2, l2)
        assert spent <= pr + 1e-9
        assert abs(spent - res.min_power_at_best) < 1e-9


def test_baseline_symmetric_worked_instance():
    rates = tw.SourceRates(r_ma=LN3, r_bar_1r=LN2, r_bar_2r=LN2)
    res = tw.grid_certify(unit_gains(), rates, 2.0, 1e-3)
    levels, bc = res.baseline_levels, res.baseline_bc_rates
    assert_allclose(levels, [2.0, 2.0], atol=1e-9)
    assert_allclose(bc[0] + bc[1], 2.0 * LN2, atol=1e-9)  # exceeds r_ma = ln 3
    # The two-way rate itself is still capped at r_ma / 2.
    assert_allclose(res.best_rate, 0.5 * LN3, atol=1e-9)


def test_baseline_equals_min_power_solution_below_saturation():
    g = unit_gains()
    rates = tw.SourceRates(r_ma=LN6, r_bar_1r=np.log(4.0), r_bar_2r=LN2)
    for pr in (1.0, 2.5):  # below p_bar_ma = 3: solution spends everything
        sol = tw.optimize(g, rates, pr)
        res = tw.grid_certify(g, rates, pr, 1e-4)
        levels, bc = res.baseline_levels, res.baseline_bc_rates
        assert_allclose(levels, [sol.level1, sol.level2], atol=1e-9)
        assert_allclose(bc, sol.bc_rates, atol=1e-9)


# --- frozen two-pass reference ------------------------------------------------


def _two_pass_axes(gains, rates, pr_max, resolution):
    """The level axes as first built: np.unique of each direction's base
    grid, the budget complements of the other (deduplicated) base grid,
    then np.unique again."""
    forward = searchsorted_forward_level
    r_ma, r1, r2 = rates.r_ma, rates.r_bar_1r, rates.r_bar_2r
    table = gain_table([gains.alpha2, gains.alpha1, gains.pooled, gains.alpha1, gains.alpha2])
    targets = [r1, r2, r_ma, max(r_ma - r1, 0.0), max(r_ma - r2, 0.0)]
    specials = np.append(inverse_level(table, targets), forward(gains.pooled, pr_max))
    base = []
    for alpha in (gains.alpha1, gains.alpha2):
        lo, hi = 1.0 / alpha[0], forward(alpha, pr_max)
        axis = np.concatenate([np.arange(lo, hi, resolution), [lo, hi], 1.0 / alpha, specials])
        base.append(np.unique(axis[(axis >= lo) & (axis <= hi)]))
    axis1, axis2 = base
    comp1 = forward(gains.alpha1, np.maximum(pr_max - power_of_level(gains.alpha2, axis2), 0.0))
    comp2 = forward(gains.alpha2, np.maximum(pr_max - power_of_level(gains.alpha1, axis1), 0.0))
    return np.unique(np.concatenate([axis1, comp1])), np.unique(np.concatenate([axis2, comp2]))


def _two_pass_certify(gains, rates, pr_max, resolution):
    """grid_certify over the two-pass axes, with the searchsorted forward level."""
    axis1, axis2 = _two_pass_axes(gains, rates, pr_max, resolution)
    p1 = power_of_level(gains.alpha1, axis1)
    p2 = power_of_level(gains.alpha2, axis2)
    r1 = rate_of_level(gains.alpha1, axis1)
    r2 = rate_of_level(gains.alpha2, axis2)
    m1 = np.minimum(r1, rates.r_bar_2r)
    m2 = np.minimum(r2, rates.r_bar_1r)
    comp_level = searchsorted_forward_level(gains.alpha2, np.maximum(pr_max - p1, 0.0))
    comp_rate = rate_of_level(gains.alpha2, comp_level)
    boundary = 0.5 * np.minimum(rates.r_ma, m1 + np.minimum(comp_rate, rates.r_bar_1r))
    best_rate = float(np.max(boundary))
    idx = np.searchsorted(m2, 2.0 * (best_rate - RATE_TIE) - m1, side="left")
    ok = idx < m2.size
    idx = np.minimum(idx, m2.size - 1)
    cand_power = p1 + p2[idx]
    cand_power = np.where(ok & (cand_power <= pr_max * (1.0 + 1e-12)), cand_power, np.inf)
    best_i = int(np.argmin(cand_power))
    bc_sum = np.where(boundary >= best_rate - RATE_TIE, r1 + comp_rate, -np.inf)
    base_i = int(np.argmax(bc_sum))
    return tw.OracleResult(
        best_rate=best_rate,
        min_power_at_best=float(cand_power[best_i]),
        argmax_levels=(float(axis1[best_i]), float(axis2[idx[best_i]])),
        baseline_levels=(float(axis1[base_i]), float(comp_level[base_i])),
        baseline_bc_rates=(float(r1[base_i]), float(comp_rate[base_i])),
        grid_resolution=float(resolution),
    )


def _assert_matches_two_pass(g, rates, pr, resolution):
    for got, want in zip(_axes(g, rates, pr, resolution)[0], _two_pass_axes(g, rates, pr, resolution)):
        assert np.array_equal(got, want)
    got = tw.grid_certify(g, rates, pr, resolution)
    want = _two_pass_certify(g, rates, pr, resolution)
    for field in dataclasses.fields(tw.OracleResult):
        assert np.asarray(getattr(got, field.name)).tobytes() == np.asarray(
            getattr(want, field.name)
        ).tobytes(), field.name


def test_single_sort_axes_and_results_match_the_two_pass_reference(rng):
    for k in range(60):
        a1, a2 = (np.sort(np.exp(rng.normal(0.0, 1.0, size=int(n))))[::-1]
                  for n in rng.integers(1, 9, size=2))
        g = tw.synthetic_gains(a1, a2)
        rates = random_synthetic_rates(rng)
        first = 1.0 / g.pooled[1] - 1.0 / g.pooled[0]  # budget that activates a second subchannel
        pr = (0.0, float(rng.uniform(0.0, first)), float(rng.uniform(0.0, 12.0)))[k % 3]
        _assert_matches_two_pass(g, rates, pr, (1e-3, 1e-2)[k % 2])
    # Edges of the minimum-power scan's row window (grid_certify searches
    # only the rows that can win; the two-pass reference searches them all).
    for k in range(24):
        g = tw.synthetic_gains(random_gain_list(rng, 3), random_gain_list(rng, 3))
        base = random_synthetic_rates(rng)
        resolution = (1e-3, 1e-2)[k % 2]
        pr = 0.0 if k % 8 == 7 else float(rng.uniform(0.5, 6.0))
        early = rate_of_level(g.alpha1, 1.0 / g.alpha1[0] + 2.5 * resolution)
        r1, r2 = base.r_bar_1r, base.r_bar_2r
        rates = (
            tw.SourceRates(r_ma=r1, r_bar_1r=r1, r_bar_2r=0.0),  # every row capped
            tw.SourceRates(r_ma=r1 + early, r_bar_1r=r1, r_bar_2r=early),  # cap binds in the first rows
            tw.SourceRates(r_ma=r2 + 0.01, r_bar_1r=0.01, r_bar_2r=r2),  # most rows need more than m2[-1]
            base,
        )[(k // 2) % 4]
        _assert_matches_two_pass(g, rates, pr, resolution)


def test_low_snr_boundary_pair_passes_the_budget_test():
    """At microwatt budgets over unit noise the full-budget power level -
    1/alpha keeps only about 1e-11 of relative precision, above the
    relative 1e-12 budget slack; the slack's allowance for the pair's
    round-off must still let the boundary maximizer qualify, and the
    result must meet C1."""
    cfg = tw.SystemConfig(n1=1, n2=1, n_r=1, p1_max=1.122421072896774e-06,
                          p2_max=2.674032931874404e-06, seed=34)
    channels = tw.generate_channels(cfg, 0)
    g, strategy = tw.decompose(channels, cfg), tw.max_ma_strategy(channels, cfg)
    pr = 4.892514591402648e-06
    cert = tw.grid_certify(g, strategy, pr, 1e-3 * pr)
    sol = tw.optimize(g, strategy, pr)
    bound = 2.0 * tw.grid_lipschitz_bound(g, 1e-3 * pr)
    assert cert.best_rate - sol.sum_rate_tw <= 1e-6  # C1
    assert sol.consumed_power - cert.min_power_at_best - bound <= 0.0
    # The rates are about 1e-6 nats, so also relative to the rate and the budget.
    assert abs(cert.best_rate - sol.sum_rate_tw) <= 1e-6 * cert.best_rate
    assert cert.min_power_at_best <= pr * (1.0 + 1e-9)
