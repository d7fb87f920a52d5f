"""Relay optimizer: worked instances, feasibility, structure, conformance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay.waterfill import (
    forward_level,
    forward_waterfill,
    inverse_waterfill,
    power_of_level,
    rate_of_level,
)

from conftest import random_gain_list, random_instance, random_psd, random_synthetic_rates

LN2, LN3, LN4, LN6 = np.log(2.0), np.log(3.0), np.log(4.0), np.log(6.0)


def unit_gains():
    return tw.synthetic_gains([1.0], [1.0])


def asym_rates():
    return tw.SourceRates(r_ma=LN6, r_bar_1r=LN4, r_bar_2r=LN2)


def sym_rates():
    return tw.SourceRates(r_ma=LN3, r_bar_1r=LN2, r_bar_2r=LN2)


# --- relative levels -------------------------------------------------------


def test_relative_levels_symmetric_instance():
    lv = tw.relative_levels(unit_gains(), sym_rates(), 1.0)
    assert_allclose(lv.inv_mu1, 2.0, atol=1e-12)
    assert_allclose(lv.inv_mu2, 2.0, atol=1e-12)
    assert_allclose(lv.inv_mu_ma, np.sqrt(3.0), atol=1e-12)


def test_relative_levels_boundaries():
    g = unit_gains()
    lv = tw.relative_levels(g, tw.SourceRates(r_ma=0.0, r_bar_1r=0.0, r_bar_2r=0.0), 0.0)
    assert lv.inv_mu_ma == 1.0  # 1/alpha_max of the pooled set
    assert lv.inv_lambda0 == 1.0


def test_relative_levels_match_their_defining_rates(rng):
    for _ in range(50):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        lv = tw.relative_levels(g, rates, float(rng.uniform(0.0, 10.0)))
        assert abs(rate_of_level(g.alpha2, lv.inv_mu1) - rates.r_bar_1r) < 1e-10
        assert abs(rate_of_level(g.alpha1, lv.inv_mu2) - rates.r_bar_2r) < 1e-10
        assert abs(rate_of_level(g.pooled(), lv.inv_mu_ma) - rates.r_ma) < 1e-10


# --- thresholds ------------------------------------------------------------


def test_thresholds_asymmetric_worked_instance():
    g = unit_gains()
    lv = tw.relative_levels(g, asym_rates(), 6.0)
    led = tw.thresholds(g, lv, asym_rates())
    assert_allclose(lv.inv_mu1, 4.0, atol=1e-12)
    assert_allclose(lv.inv_mu2, 2.0, atol=1e-12)
    assert_allclose(lv.inv_mu_ma, np.sqrt(6.0), atol=1e-12)
    assert not led.case_symmetric
    assert_allclose(led.p_l, 2.0, atol=1e-12)
    assert_allclose(led.p_t, 4.0, atol=1e-12)
    assert_allclose(led.p_s, 6.0, atol=1e-12)
    assert_allclose(led.p_bar_ma, 3.0, atol=1e-12)


def test_thresholds_symmetric_instance():
    g = unit_gains()
    lv = tw.relative_levels(g, sym_rates(), 1.0)
    led = tw.thresholds(g, lv, sym_rates())
    assert led.case_symmetric
    assert_allclose(led.p_ma, 2.0 * (np.sqrt(3.0) - 1.0), atol=1e-12)
    assert led.p_bar_ma == led.p_ma


def test_thresholds_degenerate_equal_mu():
    g = unit_gains()
    lv = tw.relative_levels(g, sym_rates(), 1.0)
    led = tw.thresholds(g, lv, sym_rates())
    assert led.p_l == led.p_t == led.p_s


def test_threshold_ordering_random(rng):
    for _ in range(100):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        lv = tw.relative_levels(g, rates, 1.0)
        led = tw.thresholds(g, lv, rates)
        assert led.p_l <= led.p_t + 1e-12
        assert led.p_t <= led.p_s + 1e-12
        assert min(led.p_ma, led.p_l, led.p_t, led.p_s, led.p_bar_ma) >= 0.0
        if not led.case_symmetric:
            assert led.p_ma <= led.p_bar_ma + 1e-12


# --- optimize: worked instances ---------------------------------------------


def test_optimize_symmetric_small_budget():
    sol = tw.optimize(unit_gains(), sym_rates(), 1.0)
    assert sol.step_trace == (1, 2, 6)
    assert_allclose([sol.level1, sol.level2], [1.5, 1.5], atol=1e-12)
    assert_allclose(sol.consumed_power, 1.0, atol=1e-12)
    assert_allclose(sum(sol.bc_rates), 2.0 * np.log(1.5), atol=1e-12)
    assert sol.efficient and sol.source_waste


def test_optimize_symmetric_saturated():
    sol = tw.optimize(unit_gains(), sym_rates(), 2.0)
    assert sol.step_trace == (1, 2, 6)
    assert_allclose([sol.level1, sol.level2], [np.sqrt(3.0)] * 2, atol=1e-12)
    assert_allclose(sol.consumed_power, 2.0 * (np.sqrt(3.0) - 1.0), atol=1e-12)
    assert_allclose(sum(sol.bc_rates), LN3, atol=1e-12)  # pinned to r_ma
    assert sol.efficient and not sol.source_waste


def test_optimize_asymmetric_worked_instance():
    sol = tw.optimize(unit_gains(), asym_rates(), 6.0)
    assert sol.step_trace == (1, 2, 3, 4, 5, 6, 7)
    assert_allclose([sol.level1, sol.level2], [2.0, 3.0], atol=1e-10)
    assert_allclose(sol.consumed_power, 3.0, atol=1e-10)
    assert_allclose(sol.bc_rates, [LN2, LN3], atol=1e-10)
    assert_allclose(sol.sum_rate_tw, 0.5 * LN6, atol=1e-12)
    assert not sol.efficient and not sol.source_waste


def test_optimize_zero_budget():
    sol = tw.optimize(unit_gains(), asym_rates(), 0.0)
    assert sol.consumed_power == 0.0
    assert sol.sum_rate_tw == 0.0
    assert sol.step_trace == (1, 2, 6)


def test_optimize_relabels_swapped_directions():
    # Swap the two directions; the solution must swap with them.
    swapped = tw.SourceRates(r_ma=LN6, r_bar_1r=LN2, r_bar_2r=LN4)
    sol = tw.optimize(unit_gains(), swapped, 6.0)
    assert_allclose([sol.level1, sol.level2], [3.0, 2.0], atol=1e-10)
    assert_allclose(sol.consumed_power, 3.0, atol=1e-10)
    assert sol.step_trace == (1, 2, 3, 4, 5, 6, 7)


def test_invalid_strategy_rejected():
    g = unit_gains()
    with pytest.raises(tw.InvalidStrategyError):
        tw.optimize(g, tw.SourceRates(r_ma=LN4 + LN2, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)
    with pytest.raises(tw.InvalidStrategyError):
        tw.optimize(g, tw.SourceRates(r_ma=LN2, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)
    with pytest.raises(tw.InvalidStrategyError):
        tw.optimize(g, tw.SourceRates(r_ma=np.inf, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)


def test_non_finite_budget_rejected():
    # A NaN budget used to come back as a 3 W solution on path 1-2-3-5-6-7.
    g = unit_gains()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            tw.relative_levels(g, asym_rates(), bad)
        with pytest.raises(ValueError):
            tw.optimize(g, asym_rates(), bad)
        with pytest.raises(ValueError):
            tw.grid_certify(g, asym_rates(), bad, 1e-3)


# --- solution invariants -----------------------------------------------------


def assert_solution_feasible(gains, rates, pr_max, sol, lv):
    assert rate_of_level(gains.alpha1, sol.level1) <= rates.r_bar_2r + 1e-9
    assert rate_of_level(gains.alpha2, sol.level2) <= rates.r_bar_1r + 1e-9
    assert sol.bc_rates[0] + sol.bc_rates[1] <= rates.r_ma + 1e-9
    assert sol.consumed_power <= pr_max + 1e-9
    expected_power = power_of_level(gains.alpha1, sol.level1) + power_of_level(
        gains.alpha2, sol.level2
    )
    assert abs(sol.consumed_power - expected_power) < 1e-12
    if sol.level1 == sol.level2:
        assert abs(sol.level1 - min(lv.inv_mu_ma, lv.inv_lambda0)) < 1e-10
    else:
        assert abs(min(sol.level1, sol.level2) - min(lv.inv_mu1, lv.inv_mu2)) < 1e-10


def test_feasibility_and_structure_random(rng):
    for _ in range(150):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        pr = float(rng.uniform(0.0, 10.0))
        sol = tw.optimize(g, rates, pr)
        lv = tw.relative_levels(g, rates, pr)
        assert_solution_feasible(g, rates, pr, sol, lv)


def test_covariances_match_levels(rng):
    # B_i rebuilt through the unitary factors must reproduce the
    # subchannel rates: ln det(I + H B H^H / sigma^2) == rate_of_level.
    for _ in range(15):
        cfg, ch, gains, st = random_instance(rng)
        pr = float(rng.uniform(0.1, 6.0))
        sol = tw.optimize(gains, st, pr)
        for b, h, sig, alpha, level in (
            (sol.b1, ch.hr1, cfg.sigma1_sq, gains.alpha1, sol.level1),
            (sol.b2, ch.hr2, cfg.sigma2_sq, gains.alpha2, sol.level2),
        ):
            assert np.linalg.eigvalsh(b).min() > -1e-10
            _, logdet = np.linalg.slogdet(np.eye(h.shape[0]) + h @ b @ h.conj().T / sig)
            assert abs(logdet - rate_of_level(alpha, level)) < 1e-9
        assert abs(np.trace(sol.b1).real + np.trace(sol.b2).real - sol.consumed_power) < 1e-9


def test_monotone_saturation_sweep(rng):
    for _ in range(10):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        prev_power, prev_rate = -1.0, -1.0
        sols = []
        for pr in np.linspace(0.0, 40.0, 60):
            sol = tw.optimize(g, rates, float(pr))
            assert sol.consumed_power >= prev_power - 1e-12
            assert sol.sum_rate_tw >= prev_rate - 1e-12
            prev_power, prev_rate = sol.consumed_power, sol.sum_rate_tw
            sols.append(sol)
        assert abs(sols[-1].sum_rate_tw - 0.5 * rates.r_ma) < 1e-9
        assert abs(sols[-1].consumed_power - sols[-2].consumed_power) < 1e-9


# --- step-path conformance ---------------------------------------------------


def _straddling_budgets(led, rng):
    ths = sorted({led.p_ma, led.p_l, led.p_t, led.p_s, led.p_bar_ma})
    budgets = [0.5 * ths[0]] if ths[0] > 1e-9 else [1e-3]
    for a, b in zip(ths, ths[1:]):
        if b - a > 1e-6:
            budgets.append(0.5 * (a + b))
    budgets.append(1.5 * ths[-1] + 0.1)
    return budgets


def test_trace_matches_classification_random(rng):
    checked = 0
    for _ in range(120):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        led0 = tw.thresholds(g, tw.relative_levels(g, rates, 1.0), rates)
        for pr in _straddling_budgets(led0, rng):
            lv = tw.relative_levels(g, rates, pr)
            led = tw.thresholds(g, lv, rates)
            sol = tw.optimize(g, rates, pr)
            assert sol.step_trace == tw.classify_case(led, lv, pr)
            checked += 1
    assert checked >= 400


def test_trace_matches_classification_at_exact_thresholds(rng):
    for _ in range(40):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        led0 = tw.thresholds(g, tw.relative_levels(g, rates, 1.0), rates)
        for pr in {led0.p_ma, led0.p_l, led0.p_t, led0.p_s, led0.p_bar_ma}:
            if pr <= 0.0:
                continue
            lv = tw.relative_levels(g, rates, pr)
            led = tw.thresholds(g, lv, rates)
            sol = tw.optimize(g, rates, pr)
            assert sol.step_trace == tw.classify_case(led, lv, pr)


def test_classification_brackets():
    g = unit_gains()
    rates = asym_rates()
    lv = tw.relative_levels(g, rates, 6.0)
    led = tw.thresholds(g, lv, rates)
    assert tw.classify_case(led, lv, 1.0) == (1, 2, 6)            # below p_l
    assert tw.classify_case(led, lv, 2.5) == (1, 2, 3, 4, 6)      # (p_l, p_bar_ma]
    assert tw.classify_case(led, lv, 3.5) == (1, 2, 3, 4, 6, 7)   # (p_bar_ma, p_t]
    assert tw.classify_case(led, lv, 5.0) == (1, 2, 3, 4, 5, 6, 7)  # (p_t, p_s]
    assert tw.classify_case(led, lv, 7.0) == (1, 2, 3, 5, 6, 7)   # above p_s
    lv_s = tw.relative_levels(g, sym_rates(), 1.0)
    led_s = tw.thresholds(g, lv_s, sym_rates())
    assert tw.classify_case(led_s, lv_s, 1.0) == (1, 2, 6)        # below p_ma


# --- level-order properties ----------------------------------------------------


def test_pooled_level_strictly_below_max_relative_level(rng):
    # The pooled-rate level can never reach the larger per-direction level.
    for _ in range(200):
        cfg, ch, gains, st = random_instance(rng, n_max=2, nr_max=3)
        lv = tw.relative_levels(gains, st, 1.0)
        assert lv.inv_mu_ma < max(lv.inv_mu1, lv.inv_mu2) + 1e-12


def test_bc_sum_unimodal_along_fixed_power_splits(rng):
    # Fixing total power, the BC sum peaks at the common pooled level and
    # decays monotonically as the split moves away in either direction.
    for _ in range(60):
        a1, a2 = random_gain_list(rng), random_gain_list(rng)
        g = tw.synthetic_gains(a1, a2)
        total = float(rng.uniform(0.5, 10.0))
        level0 = forward_level(g.pooled(), total)
        lo = 1.0 / g.alpha1[0]
        hi = forward_level(g.alpha1, total)
        grid = np.unique(np.concatenate([np.linspace(lo, hi, 60), [np.clip(level0, lo, hi)]]))
        power1 = power_of_level(g.alpha1, grid)
        level2 = forward_level(g.alpha2, np.maximum(total - power1, 0.0))
        bc = rate_of_level(g.alpha1, grid) + rate_of_level(g.alpha2, level2)
        peak = int(np.argmax(bc))
        assert np.all(np.diff(bc[: peak + 1]) >= -1e-9)
        assert np.all(np.diff(bc[peak:]) <= 1e-9)
        assert abs(grid[peak] - np.clip(level0, lo, hi)) <= (hi - lo) / 59 + 1e-9


def test_equal_rate_spread_costs_more_power(rng):
    # Raising the higher level and lowering the lower one along an
    # equal-BC-sum contour strictly increases total power.
    checked = 0
    while checked < 60:
        a_hi, a_lo = random_gain_list(rng), random_gain_list(rng)
        level_lo = float(rng.uniform(1.05, 3.0)) / a_lo[0]
        level_hi = level_lo * float(rng.uniform(1.05, 3.0))
        if level_hi <= 1.0 / a_hi[0]:
            continue
        delta = level_hi * float(rng.uniform(0.02, 0.3))
        gain_hi = rate_of_level(a_hi, level_hi + delta) - rate_of_level(a_hi, level_hi)
        target_lo = rate_of_level(a_lo, level_lo) - gain_hi
        if target_lo <= 1e-9 or gain_hi <= 1e-12:
            continue
        level_lo_new = inverse_waterfill(a_lo, target_lo).level
        before = power_of_level(a_hi, level_hi) + power_of_level(a_lo, level_lo)
        after = power_of_level(a_hi, level_hi + delta) + power_of_level(a_lo, level_lo_new)
        assert after > before
        checked += 1


def test_real_strategy_instances_feasible(rng):
    for _ in range(40):
        cfg, ch, gains, st = random_instance(rng)
        pr = float(rng.uniform(0.05, 8.0))
        sol = tw.optimize(gains, st, pr)
        lv = tw.relative_levels(gains, st, pr)
        assert_solution_feasible(gains, st, pr, sol, lv)
        led = tw.thresholds(gains, lv, st)
        assert sol.step_trace == tw.classify_case(led, lv, pr)


def test_efficiency_matches_pooled_waterfill_definition(rng):
    for _ in range(40):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        rates = random_synthetic_rates(rng)
        pr = float(rng.uniform(0.0, 8.0))
        sol = tw.optimize(g, rates, pr)
        best_bc = forward_waterfill(g.pooled(), sol.consumed_power).rate
        assert sol.efficient == (sum(sol.bc_rates) >= best_bc - 1e-9)
        assert sum(sol.bc_rates) <= best_bc + 1e-9  # never above the pooled optimum
