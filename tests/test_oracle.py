"""Grid oracle: frozen examples, naive-scan equivalence, convergence."""

import numpy as np
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay.oracle import _axes
from twrelay.waterfill import power_of_level, rate_of_level

from conftest import random_gain_list, random_synthetic_rates

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
    axis1, axis2 = _axes(gains, rates, pr_max, resolution)
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
