"""Relay optimizer: worked instances, feasibility, structure, conformance, batching."""

import dataclasses
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay.waterfill import (
    forward_level,
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
        assert abs(rate_of_level(g.pooled, lv.inv_mu_ma) - rates.r_ma) < 1e-10


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
        tw.optimize(g, tw.SourceRates(r_ma=LN4 + LN2 + 1e-9, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)
    with pytest.raises(tw.InvalidStrategyError):
        tw.optimize(g, tw.SourceRates(r_ma=LN2, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)
    with pytest.raises(tw.InvalidStrategyError):
        tw.optimize(g, tw.SourceRates(r_ma=np.inf, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)


def test_array_holding_results_compare_and_hash_by_identity():
    g = tw.synthetic_gains([2.0, 1.0], [1.0])
    a, b = tw.optimize(g, asym_rates(), 6.0), tw.optimize(g, asym_rates(), 6.0)
    assert a == a and a != b
    config = tw.SystemConfig(n1=2, n2=2, n_r=3)
    channels = tw.generate_channels(config, 0)
    s, t = tw.max_ma_strategy(channels, config), tw.max_ma_strategy(channels, config)
    assert s != t and s != tw.SourceRates(s.r_ma, s.r_bar_1r, s.r_bar_2r)
    assert asym_rates() == asym_rates() and hash(asym_rates()) == hash(asym_rates())
    for obj in (a, g, channels, tw.inverse_waterfill(g.alpha1, 1.0), s):
        assert obj == obj and {obj: 1}[obj] == 1
    assert dataclasses.replace(a, consumed_power=1.0).consumed_power == 1.0


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
    # A (1, 1) budget came back as a solution whose flags were lists.
    for bad in ([[1.0]], [1.0, 2.0]):
        with pytest.raises(ValueError, match="one budget, or one per instance"):
            tw.optimize(g, asym_rates(), bad)
        with pytest.raises(ValueError, match="one budget, or one per instance"):
            tw.relative_levels(g, asym_rates(), bad)
    with pytest.raises(ValueError):
        tw.optimize_many([g] * 2, [asym_rates()] * 2, [1.0, 2.0, 3.0])


def test_non_finite_resolution_rejected():
    # An infinite resolution used to come back as an OracleResult with
    # grid_resolution=inf, and a NaN bound as nan.
    g = unit_gains()
    for bad in (np.nan, np.inf, -np.inf, 0.0):
        with pytest.raises(ValueError, match="resolution"):
            tw.grid_certify(g, asym_rates(), 1.0, bad)
        with pytest.raises(ValueError, match="resolution"):
            tw.grid_lipschitz_bound(g, bad)


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
        level0 = forward_level(g.pooled, total)
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
        best_bc = rate_of_level(g.pooled, forward_level(g.pooled, sol.consumed_power))
        assert sol.efficient == (sum(sol.bc_rates) >= best_bc - 1e-9)
        assert sum(sol.bc_rates) <= best_bc + 1e-9  # never above the pooled optimum


# --- the batch engine against the scalar seven-step ---------------------------
#
# The reference below is the scalar optimizer that optimize_many replaced,
# kept as it was: one instance at a time through the 1-D water-fill kernels.


def _scalar_levels(gains, rates, pr_max):
    pooled = gains.pooled
    return tw.RelativeLevels(
        inv_mu1=inverse_waterfill(gains.alpha2, rates.r_bar_1r).level,
        inv_mu2=inverse_waterfill(gains.alpha1, rates.r_bar_2r).level,
        inv_mu_ma=inverse_waterfill(pooled, rates.r_ma).level,
        inv_lambda0=forward_level(pooled, pr_max),
    )


def _scalar_thresholds(gains, levels, rates):
    pooled = gains.pooled
    low = min(levels.inv_mu1, levels.inv_mu2)
    high = max(levels.inv_mu1, levels.inv_mu2)
    p_ma = power_of_level(pooled, levels.inv_mu_ma)
    p_t = power_of_level(gains.alpha1, levels.cap1) + power_of_level(gains.alpha2, levels.cap2)
    slack = tw.relay_opt.TIE_TOL / pooled[0]
    symmetric = levels.inv_mu_ma <= low + slack
    if symmetric:
        p_bar_ma = p_ma
    elif levels.cap1 >= levels.cap2:
        bar1 = inverse_waterfill(gains.alpha1, max(rates.r_ma - rates.r_bar_1r, 0.0)).level
        p_bar_ma = power_of_level(gains.alpha1, bar1) + power_of_level(gains.alpha2, levels.cap2)
    else:
        bar2 = inverse_waterfill(gains.alpha2, max(rates.r_ma - rates.r_bar_2r, 0.0)).level
        p_bar_ma = power_of_level(gains.alpha1, levels.cap1) + power_of_level(gains.alpha2, bar2)
    return tw.ThresholdLedger(
        p_ma=p_ma, p_l=power_of_level(pooled, low), p_t=p_t, p_s=power_of_level(pooled, high),
        p_bar_ma=p_bar_ma, case_symmetric=symmetric, slack=slack,
    )


def _scalar_covariance(v_factor, powers):
    diag = np.zeros(v_factor.shape[0])
    diag[: powers.size] = powers
    return (v_factor * diag) @ v_factor.conj().T


def _scalar_optimize(gains, rates, pr_max):
    tol = tw.relay_opt.TIE_TOL  # rate ties, in nats
    levels = _scalar_levels(gains, rates, pr_max)
    ledger = _scalar_thresholds(gains, levels, rates)
    slack = ledger.slack  # level and power ties, in watts
    alpha = {1: gains.alpha1, 2: gains.alpha2}
    cap = {1: levels.cap1, 2: levels.cap2}
    r_bar = {1: rates.r_bar_1r, 2: rates.r_bar_2r}
    lv = {1: levels.inv_lambda0, 2: levels.inv_lambda0}
    trace = [1, 2]
    if not (lv[1] <= cap[1] + slack and lv[2] <= cap[2] + slack):
        a = 1 if cap[1] <= cap[2] else 2
        b = 3 - a
        trace.append(3)
        lv[a] = cap[a]
        if lv[b] <= cap[b] + slack:
            trace.append(4)
            remainder = pr_max - power_of_level(alpha[a], cap[a])
            lv[b] = forward_level(alpha[b], max(remainder, 0.0))
            if lv[b] > cap[b] + slack:
                trace.append(5)
                lv[b] = cap[b]
        else:
            trace.append(5)
            lv[b] = cap[b]
    trace.append(6)
    if lv[1] >= levels.inv_mu_ma - slack and lv[2] >= levels.inv_mu_ma - slack:
        lv[1] = lv[2] = levels.inv_mu_ma
    elif lv[1] <= levels.inv_mu_ma + slack and lv[2] <= levels.inv_mu_ma + slack:
        pass
    else:
        bc_sum = rate_of_level(alpha[1], lv[1]) + rate_of_level(alpha[2], lv[2])
        if bc_sum > rates.r_ma + tol:
            trace.append(7)
            j = 1 if lv[1] > lv[2] else 2
            lv[j] = inverse_waterfill(alpha[j], max(rates.r_ma - r_bar[j], 0.0)).level
    powers = {i: np.maximum(lv[i] - 1.0 / alpha[i], 0.0) for i in (1, 2)}
    bc = {i: rate_of_level(alpha[i], lv[i]) for i in (1, 2)}
    consumed = float(np.sum(powers[1]) + np.sum(powers[2]))
    best_bc = rate_of_level(gains.pooled, forward_level(gains.pooled, consumed))
    forwarded = min(bc[1], rates.r_bar_2r) + min(bc[2], rates.r_bar_1r)
    return tw.RelaySolution(
        level1=lv[1], level2=lv[2], powers1=powers[1], powers2=powers[2], gains=gains,
        consumed_power=consumed, sum_rate_tw=0.5 * min(rates.r_ma, forwarded),
        bc_rates=(bc[1], bc[2]), step_trace=tuple(trace),
        efficient=bool(bc[1] + bc[2] >= best_bc - tol),
        source_waste=bool(pr_max < ledger.p_bar_ma - slack),
    )


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _assert_same_solution(sol, ref):
    floats = ("level1", "level2", "consumed_power", "sum_rate_tw", "bc_rates")
    for name in floats:
        assert _bits(getattr(sol, name)) == _bits(getattr(ref, name)), name
    for name in ("powers1", "powers2"):
        got, want = getattr(sol, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    for name, v_factor, powers in (("b1", ref.gains.v1, ref.powers1), ("b2", ref.gains.v2, ref.powers2)):
        got, want = getattr(sol, name), _scalar_covariance(v_factor, powers)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert (sol.step_trace, sol.efficient, sol.source_waste) == (ref.step_trace, ref.efficient, ref.source_waste)


def _c1_c3_set(seed, count):
    """The instances and budgets of acceptance C1 (seed 2001, 200) or C3 (seed 2003, 1000)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        _, _, gains, strategy = random_instance(rng)
        cases.append((gains, strategy, float(rng.uniform(0.1, 10.0))))
    return cases


def _c5_set():
    """The instances of acceptance C5, each at its budgets straddling the thresholds."""
    rng = np.random.default_rng(2005)
    cases = []
    for _ in range(1000):
        _, _, gains, strategy = random_instance(rng)
        led = _scalar_thresholds(gains, _scalar_levels(gains, strategy, 1.0), strategy)
        ths = sorted({led.p_ma, led.p_l, led.p_t, led.p_s, led.p_bar_ma})
        budgets = [0.5 * ths[0]] if ths[0] > 1e-9 else [1e-3]
        budgets += [0.5 * (a + b) for a, b in zip(ths, ths[1:]) if b - a > 1e-6]
        budgets.append(1.5 * ths[-1] + 0.1)
        cases += [(gains, strategy, pr) for pr in budgets]
    return cases


def _asym_mc_set(trials):
    """Asymmetry-study cells at the benchmark's shape: n1 + n2 = 6, n_r = 6, P1 + P2 = 5 W, Pr = 3 W."""
    cases = []
    for n1 in range(1, 6):
        base = tw.SystemConfig(n1=n1, n2=6 - n1, n_r=6, pr_max=3.0, seed=104729)
        for trial in range(trials):
            channels = tw.generate_channels(base, trial)
            gains = tw.decompose(channels, base)
            p1 = np.linspace(0.1, 0.9, 5) * 5.0
            strategies = tw.max_ma_strategies(
                np.stack([channels.h1r] * 5), np.stack([channels.h2r] * 5), p1, 5.0 - p1, 1.0
            )
            cases += [(gains, strategy, 3.0) for strategy in strategies]
    return cases


@pytest.fixture(scope="module")
def c5_cases():
    return _c5_set()


def test_engine_matches_scalar_optimizer_bit_for_bit(c5_cases):
    rng = np.random.default_rng(5)
    sets = {
        "C1": _c1_c3_set(2001, 200),
        "C3": _c1_c3_set(2003, 1000),
        "C5": c5_cases,
        "asym-mc": _asym_mc_set(20),
    }
    for name, cases in sets.items():
        reference = [_scalar_optimize(*case) for case in cases]
        assert len({case[0].alpha1.size for case in cases}) > 1, name  # mixed widths
        for case, ref in zip(cases, reference):
            _assert_same_solution(tw.optimize(*case), ref)
        for size in (5, 25, len(cases)):
            order = rng.permutation(len(cases))
            for start in range(0, len(order), size):
                part = order[start:start + size]
                batch = tw.optimize_many(
                    [cases[k][0] for k in part], [cases[k][1] for k in part], [cases[k][2] for k in part]
                )
                for k, sol in zip(part, batch):
                    _assert_same_solution(sol, reference[k])


def test_relative_levels_and_thresholds_match_scalar_bits(c5_cases):
    seen = set()
    for gains, strategy, pr in c5_cases:
        levels = tw.relative_levels(gains, strategy, pr)
        ref = _scalar_levels(gains, strategy, pr)
        assert _bits(*dataclasses.astuple(levels)) == _bits(*dataclasses.astuple(ref))
        if id(gains) in seen:  # the ledger does not depend on the budget
            continue
        seen.add(id(gains))
        ledger, want = tw.thresholds(gains, levels, strategy), _scalar_thresholds(gains, ref, strategy)
        assert _bits(*dataclasses.astuple(ledger)[:5]) == _bits(*dataclasses.astuple(want)[:5])
        assert ledger.case_symmetric == want.case_symmetric
        assert _bits(ledger.slack) == _bits(want.slack)


def test_optimize_many_empty_batch():
    assert list(tw.optimize_many([], [], 1.0)) == []


def test_optimize_many_rejects_what_optimize_rejects():
    g, good = unit_gains(), asym_rates()
    bad = tw.SourceRates(r_ma=LN2, r_bar_1r=LN4, r_bar_2r=LN2)
    with pytest.raises(tw.InvalidStrategyError) as alone:
        tw.optimize(g, bad, 1.0)
    with pytest.raises(tw.InvalidStrategyError) as batched:
        tw.optimize_many([g] * 3, [good, bad, good], 1.0)
    assert str(batched.value) == str(alone.value)
    with pytest.raises(ValueError) as alone:
        tw.optimize(g, good, np.nan)
    with pytest.raises(ValueError) as batched:
        tw.optimize_many([g] * 3, [good] * 3, [1.0, np.nan, 2.0])
    assert str(batched.value) == str(alone.value)
    with pytest.raises(tw.InvalidStrategyError):  # rates are checked before budgets, as in optimize
        tw.optimize_many([g] * 2, [good, bad], [1.0, np.nan])
    with pytest.raises(ValueError):
        tw.optimize_many([g] * 2, [good], 1.0)


def test_optimize_many_broadcasts_one_budget():
    g = tw.synthetic_gains([2.0, 0.5], [1.0])
    sols = tw.optimize_many([g, unit_gains()], [asym_rates(), sym_rates()], 6.0)
    for sol, (gains, rates) in zip(sols, [(g, asym_rates()), (unit_gains(), sym_rates())]):
        _assert_same_solution(sol, tw.optimize(gains, rates, 6.0))


# --- branch table of steps 3-5 ----------------------------------------------


def _nested_where_steps(fills, levels, slack):
    """Steps 3-5 as nested masks, the engine's formulation before its branch
    table: the levels of both directions and the step-3/4/5 masks."""
    refill1, refill2, lam = fills
    cap1, cap2 = levels[:2]
    first1 = cap1 <= cap2  # direction 1 is the violator a, 2 is b
    loose_b = np.maximum(cap1, cap2) + slack
    clip = lam > np.minimum(cap1, cap2) + slack
    refill = clip & (lam <= loose_b)
    reclip = clip & ~(refill & (np.where(first1, refill2, refill1) <= loose_b))
    lv1 = np.where(clip, np.where(first1 | reclip, cap1, refill1), lam)
    lv2 = np.where(clip, np.where(~first1 | reclip, cap2, refill2), lam)
    return lv1, lv2, clip, refill, reclip


def test_branch_table_matches_the_nested_masks_on_every_code():
    # Every combination of caps, fills and slack on a small grid, so that
    # fills tie with caps and with each other, and each of the 16 codes occurs.
    caps, fills = [1.0, 2.0, 3.0], np.arange(1.0, 8.0) / 2.0
    grid = np.array(np.meshgrid(caps, caps, fills, fills, fills, [0.0, 0.5])).reshape(6, -1)
    cap1, cap2, lam, refill1, refill2, slack = grid
    bars = np.array([[-1.0], [-2.0]]) * np.ones(cap1.size)  # marks for bar1 and bar2
    levels = np.array([cap1, cap2, np.zeros_like(cap1), *bars])
    fills = np.array([refill1, refill2, lam])
    chosen, code = tw.relay_opt._steps_3_to_5(fills, levels, slack)
    assert sorted(set(code.tolist())) == list(range(16))
    lv1, lv2, clip, refill, reclip = _nested_where_steps(fills, levels, slack)
    assert chosen[0, 0].tobytes() == lv1.tobytes() and chosen[1, 0].tobytes() == lv2.tobytes()
    assert np.all(chosen[:, 1] == bars)
    for k in range(cap1.size):
        want = (1, 2) + tuple(s for s, on in ((3, clip[k]), (4, refill[k]), (5, reclip[k])) if on) + (6,)
        assert tw.relay_opt._TRACES[code[k]] == want
        assert tw.relay_opt._TRACES[code[k] + 16] == want + (7,)


# --- the edge r_ma = r_bar_1r + r_bar_2r -------------------------------------


def test_rates_on_the_edge_are_valid_and_never_take_step_7():
    # On r_ma = r_bar_1r + r_bar_2r the MA ceiling is redundant. The optimizer
    # rejected this edge, and classify_case predicted step 7 past p_bar_ma.
    g = unit_gains()
    edge = tw.SourceRates(r_ma=LN4 + LN2, r_bar_1r=LN4, r_bar_2r=LN2)
    led = tw.thresholds(g, tw.relative_levels(g, edge, 1.0), edge)
    assert not led.case_symmetric and led.p_bar_ma >= led.p_t - led.slack
    paths = set()
    for pr in [0.0, *_straddling_budgets(led, None), 2 * led.p_s + 1.0]:
        lv = tw.relative_levels(g, edge, pr)
        sol = tw.optimize(g, edge, pr)
        paths.add(sol.step_trace)
        assert sol.step_trace == tw.classify_case(tw.thresholds(g, lv, edge), lv, pr)
        assert 7 not in sol.step_trace
        cert = tw.grid_certify(g, edge, pr, 1e-3)
        assert cert.best_rate - sol.sum_rate_tw <= 1e-6
    assert len(paths) >= 3
    # Beyond the edge and its 1e-12-nat slack the rates stay invalid.
    with pytest.raises(tw.InvalidStrategyError, match="cannot exceed"):
        tw.optimize(g, tw.SourceRates(r_ma=LN4 + LN2 + 1e-11, r_bar_1r=LN4, r_bar_2r=LN2), 1.0)


@pytest.mark.parametrize("zero", ["p1_max", "p2_max"])
def test_trace_matches_classification_when_a_source_budget_is_zero(rng, zero):
    # A zero source budget puts r_ma on r_bar_1r + r_bar_2r (one uplink rate is 0).
    checked = 0
    for _ in range(25):
        cfg, channels, gains, _ = random_instance(rng)
        cfg = dataclasses.replace(cfg, **{zero: 0.0})
        strategy = tw.max_ma_strategy(channels, cfg)
        assert strategy.r_ma == strategy.r_bar_1r + strategy.r_bar_2r
        led0 = tw.thresholds(gains, tw.relative_levels(gains, strategy, 1.0), strategy)
        for pr in _straddling_budgets(led0, rng):
            lv = tw.relative_levels(gains, strategy, pr)
            sol = tw.optimize(gains, strategy, pr)
            assert sol.step_trace == tw.classify_case(tw.thresholds(gains, lv, strategy), lv, pr)
            assert tw.grid_certify(gains, strategy, pr, 1e-3).best_rate - sol.sum_rate_tw <= 1e-6
            checked += 1
    assert checked >= 50


def test_levels_that_overspend_step_down_to_the_budget(rng):
    # At gains ~1e-9 the levels sit near 1/alpha ~ 1e9 W, whose ulp is
    # 1.2e-7 W: the powers level - 1/alpha of the nearest level can sum
    # past the budget by more than its round-off. The levels step down
    # until the powers fit, within the relative 1e-12 of every budget test;
    # the path and the rates' consistency stay.
    stepped = 0
    for _ in range(40):
        g = tw.synthetic_gains(random_gain_list(rng) * 1e-9, random_gain_list(rng) * 1e-9)
        rates = tw.SourceRates(r_ma=1.5, r_bar_1r=1.0, r_bar_2r=1.0)  # no ceiling binds
        pr = float(rng.uniform(0.5, 5.0))
        sol = tw.optimize(g, rates, pr)
        lam = tw.relative_levels(g, rates, pr).inv_lambda0
        stepped += power_of_level(g.pooled, lam) > pr * (1.0 + 1e-12)
        assert sol.step_trace == (1, 2, 6)
        assert sol.level1 == sol.level2 <= lam
        assert sol.consumed_power <= pr * (1.0 + 1e-12)
        assert sol.consumed_power == np.add.reduce(sol.powers1) + np.add.reduce(sol.powers2)
        assert_allclose(sol.bc_rates, [rate_of_level(g.alpha1, sol.level1), rate_of_level(g.alpha2, sol.level2)],
                        rtol=1e-12)
        (batched,) = tw.optimize_many([g], [rates], pr)
        _assert_same_solution(batched, sol)
    assert stepped >= 10
    # A fill within the slack below 1/mu_ma = sqrt(3) is pinned up to it,
    # which spent 1.5e-9 W above this budget; the pair now stays within it.
    pr = 2.0 * (np.sqrt(3.0) - 1.0) - 1.5e-9
    sol = tw.optimize(unit_gains(), sym_rates(), pr)
    assert sol.step_trace == (1, 2, 6) and sol.efficient
    assert sol.consumed_power <= pr * (1.0 + 1e-12)
    assert sol.level1 == sol.level2 and abs(sol.level1 - np.sqrt(3.0)) < 1e-9


# --- column results ------------------------------------------------------------


def _assert_columns_give_each_solve(sols, cases):
    """RelaySolutions give, under len, iteration and indexing, each instance's own
    optimize, bit for bit, and columns that hold the same values."""
    assert len(sols) == len(cases)
    items = list(sols)
    for i, (gains, rates, pr) in enumerate(cases):
        ref = tw.optimize(gains, rates, pr)
        for sol in (items[i], sols[i], sols[i - len(cases)]):
            assert type(sol) is tw.RelaySolution and sol.gains is gains
            _assert_same_solution(sol, ref)
        assert _bits(sols.levels[:, i], sols.bc_rates[:, i]) == _bits([ref.level1, ref.level2], ref.bc_rates)
        assert _bits(sols.consumed_power[i], sols.sum_rate_tw[i]) == _bits(ref.consumed_power, ref.sum_rate_tw)
        assert (bool(sols.efficient[i]), bool(sols.source_waste[i])) == (ref.efficient, ref.source_waste)
        assert tw.relay_opt._TRACES[sols.step_codes[i]] == ref.step_trace
    with pytest.raises(IndexError):
        sols[len(cases)]


def test_optimize_many_columns_give_each_solve_bit_for_bit(rng):
    cases = [(gains, strategy, float(pr)) for _, _, gains, strategy in (random_instance(rng) for _ in range(30))
             for pr in rng.uniform(0.1, 6.0, 2)]
    sols = tw.optimize_many(*map(list, zip(*cases)))
    _assert_columns_give_each_solve(sols, cases)
    one = tw.optimize_many([cases[0][0]], [cases[0][1]], cases[0][2])
    _assert_columns_give_each_solve(one, cases[:1])


def test_optimize_many_takes_the_ma_phase_columns():
    # An asymmetry-study split: the MA phase's columns, or their rates, in place of the strategies.
    h1, h2, p1, p2, sig = _split_group_of_study(2, 3)
    found = tw.max_ma_strategies(h1, h2, p1, p2, sig)
    assert all(st is not None for st in found)
    cfg = tw.SystemConfig(n1=2, n2=4, n_r=6, seed=104729)
    gains = [tw.decompose(tw.generate_channels(cfg, trial), cfg) for trial in range(3) for _ in range(5)]
    cases = [(g, st, 3.0) for g, st in zip(gains, found)]
    for rates in (found, found.rates):
        _assert_columns_give_each_solve(tw.optimize_many(gains, rates, 3.0), cases)
    dropped = tw.max_ma_strategies(h1[:2], h2[:2], p1[:2], p2[:2], [1.0, sys.float_info.min])
    assert dropped[1] is None
    for rates, n in ((dropped.rates, 2), (np.array([[1.0], [0.5], [-1.0]]), 1)):
        with pytest.raises(tw.InvalidStrategyError, match="finite and nonnegative"):
            tw.optimize_many(gains[:n], rates, 3.0)
    with pytest.raises(ValueError, match="one entry per instance"):
        tw.optimize_many(gains[:3], found.rates, 3.0)


def _assert_same_columns(got, want):
    """Two RelaySolutions hold the same columns, bit for bit, and items of the same solutions."""
    for name in ("levels", "powers1", "powers2", "consumed_power", "bc_rates", "sum_rate_tw", "step_codes",
                 "efficient", "source_waste"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    for i in (0, len(want) - 1):
        _assert_same_solution(got[i], want[i])
        assert all(getattr(got[i].gains, n).tobytes() == getattr(want[i].gains, n).tobytes()
                   for n in ("alpha1", "alpha2", "v1", "v2"))


@pytest.mark.parametrize("n_total, n_r", [(6, 6), (10, 10)])
def test_optimize_many_takes_gain_columns_bit_for_bit(n_total, n_r):
    # Every antenna split of a study in one call: at n_total = n_r = 10 the
    # gain lists reach 8 or more, where the bits depend on which instances
    # share a call; the columns give the table the SubchannelGains list gives.
    cfg = tw.SystemConfig(n1=1, n2=n_total - 1, n_r=n_r, seed=104729)
    normals = tw.draw_normals(cfg, range(4))
    splits = [tw.cut_channels(normals, n_r, n1) for n1 in range(1, n_total)]
    columns = tw.decompose_groups([(c.hr1, c.hr2) for c in splits], 1.0, 1.0)
    gains = list(columns)
    found = tw.max_ma_strategy_groups([(c.h1r, c.h2r, 2.0, 3.0, 1.0) for c in splits])
    rates = np.concatenate([strategies.rates for strategies in found], axis=1)
    assert (max(g.pooled.size for g in gains) >= 8) == (n_r >= 8) and len({g.alpha1.size for g in gains}) > 1
    for pr in (3.0, np.linspace(0.1, 20.0, len(gains))):
        sols = tw.optimize_many(columns, rates, pr)
        assert sols.gains is columns and len(sols) == len(gains)
        _assert_same_columns(sols, tw.optimize_many(gains, rates, pr))
    part = np.array([5, 0, 17, 3])
    _assert_same_columns(tw.optimize_many(columns.take(part), rates[:, part], 3.0),
                         tw.optimize_many([gains[k] for k in part], rates[:, part], 3.0))
    columns.reasons[1] = "downlink channel has no nonzero singular value"
    with pytest.raises(ValueError, match="^gains must hold no dropped row$"):
        tw.optimize_many(columns, rates, 3.0)


def _split_group_of_study(n1, trials):
    """The MA-phase group of one asym-mc antenna split: n1 + n2 = 6, n_r = 6, P1 + P2 = 5 W."""
    cfg = tw.SystemConfig(n1=n1, n2=6 - n1, n_r=6, seed=104729)
    channels = [tw.generate_channels(cfg, trial) for trial in range(trials)]
    p1 = np.tile(np.linspace(0.1, 0.9, 5) * 5.0, trials)
    return (np.repeat(np.stack([ch.h1r for ch in channels]), 5, axis=0),
            np.repeat(np.stack([ch.h2r for ch in channels]), 5, axis=0), p1, 5.0 - p1, 1.0)


# --- where the engine checks its inputs --------------------------------------


def test_rates_objects_other_than_source_rates_are_checked_by_its_rule():
    # A SourceRates goes straight to the targets; any other object with the
    # three rates is checked and clamped as a SourceRates would be.
    g = unit_gains()
    rates = asym_rates()
    duck = dataclasses.make_dataclass("Rates", ["r_ma", "r_bar_1r", "r_bar_2r"])
    want = tw.optimize(g, rates, 1.0)
    got = tw.optimize_many([g], [duck(rates.r_ma, rates.r_bar_1r, rates.r_bar_2r)], 1.0)[0]
    assert (got.level1, got.level2, got.consumed_power, got.step_trace) == (
        want.level1, want.level2, want.consumed_power, want.step_trace)
    clamped = tw.optimize_many([g], [duck(LN2, -1e-13, LN2)], 1.0)[0]
    assert clamped.level1 == tw.optimize(g, tw.SourceRates(r_ma=LN2, r_bar_1r=0.0, r_bar_2r=LN2), 1.0).level1
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(tw.InvalidStrategyError, match="finite and nonnegative"):
            tw.optimize_many([g, g], [rates, duck(bad, LN4, LN2)], 1.0)


def test_each_rate_order_rule_raises_alone_and_the_sum_rule_first_in_a_batch():
    g = unit_gains()
    above = tw.SourceRates(r_ma=LN4 + LN2 + 1e-11, r_bar_1r=LN4, r_bar_2r=LN2)
    below = tw.SourceRates(r_ma=LN4 - 1e-11, r_bar_1r=LN4, r_bar_2r=LN2)
    good = asym_rates()
    for bad, message in ((above, "cannot exceed r_bar_1r \\+ r_bar_2r"), (below, "cannot be below either")):
        with pytest.raises(tw.InvalidStrategyError, match=message):
            tw.optimize(g, bad, 1.0)
        with pytest.raises(tw.InvalidStrategyError, match=message):
            tw.optimize_many([g] * 3, [good, bad, good], 1.0)
        columns = np.array([[r.r_ma, r.r_bar_1r, r.r_bar_2r] for r in (good, bad)]).T
        with pytest.raises(tw.InvalidStrategyError, match=message):
            tw.optimize_many([g] * 2, columns, 1.0)
    for batch in ([below, above], [above, below], [good, below, good, above]):
        with pytest.raises(tw.InvalidStrategyError, match="cannot exceed"):
            tw.optimize_many([g] * len(batch), batch, 1.0)


def test_budget_at_the_float_maximum_solves_without_overflow():
    # The overspend test's bound pr * (1 + 1e-12) is beyond the float range
    # for budgets within 1e-12 of the float maximum; the budget rule accepts
    # them. They saturate as any budget above the saturation threshold does.
    gains, rates = tw.synthetic_gains([1.0], [1.0]), tw.SourceRates(0.5, 0.4, 0.3)
    budgets = [sys.float_info.max, np.nextafter(sys.float_info.max / (1.0 + 1e-12), np.inf), 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = tw.optimize_many([gains] * 3, [rates] * 3, budgets)
        alone = [tw.optimize(gains, rates, b) for b in budgets]
    for sol in [*found, *alone]:
        assert (sol.level1, sol.level2, sol.consumed_power, sol.sum_rate_tw, sol.step_trace) == (
            alone[2].level1, alone[2].level2, alone[2].consumed_power, alone[2].sum_rate_tw, alone[2].step_trace)


def test_broadcast_rates_past_the_float_range_take_the_overflow_rule():
    # 710 nats a direction on a gain of 1e10: alpha * level passes the float
    # maximum, so each rate is ln alpha + ln level, as rate_of_level gives it,
    # not inf, and no RuntimeWarning is emitted. A batch shares the rule, and
    # its other rows keep their bits.
    gains, small = tw.synthetic_gains([1e10], [1e10]), tw.synthetic_gains([2.0, 1.0], [1.5])
    wide, rates = tw.SourceRates(1420.0, 710.0, 710.0), tw.SourceRates(1.0, 0.8, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = tw.optimize(gains, wide, 1e300)
        batch = tw.optimize_many([gains, small], [wide, rates], [1e300, 1.0])
        alone = tw.optimize(small, rates, 1.0)
    assert sol.bc_rates == (710.0, 710.0)
    assert sol.bc_rates == (rate_of_level(gains.alpha1, sol.level1), rate_of_level(gains.alpha2, sol.level2))
    assert sol.sum_rate_tw == 710.0 and sol.efficient
    assert batch[0].bc_rates == sol.bc_rates
    assert (batch[1].bc_rates, batch[1].sum_rate_tw, batch[1].efficient) == (
        alone.bc_rates, alone.sum_rate_tw, alone.efficient)
