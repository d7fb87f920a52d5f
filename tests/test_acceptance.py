"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one `[gate] ... PASS/FAIL` line (visible under
`pytest -s` or on failure) and asserts the criterion itself.
"""

import time

import numpy as np

import twrelay as tw
from twrelay.sim_cli import ScenarioSpec, run_asymmetry_study, run_prmax_sweep
from twrelay.waterfill import (
    forward_level,
    forward_waterfill,
    inverse_waterfill,
    power_of_level,
    rate_of_level,
)

from conftest import random_gain_list, random_instance, random_psd

LN2, LN3, LN4, LN6 = (np.log(v) for v in (2.0, 3.0, 4.0, 6.0))


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[gate] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


# ---------------------------------------------------------------------------
# C1: grid-search oracle certifies rate optimality and minimum power on 200
#     seeded random instances (n_r <= 4, n_i <= 3, sigma^2 = 1, budget
#     uniform in [0.1, 10]) at resolution 1e-4.
# ---------------------------------------------------------------------------


def test_c1_oracle_optimality():
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    worst_rate_gap = -np.inf
    worst_power_slack = -np.inf
    for _ in range(200):
        _, _, gains, strategy = random_instance(rng, n_max=3, nr_max=4)
        pr = float(rng.uniform(0.1, 10.0))
        sol = tw.optimize(gains, strategy, pr)
        cert = tw.grid_certify(gains, strategy, pr, 1e-4)
        bound = 2.0 * tw.grid_lipschitz_bound(gains, 1e-4)
        worst_rate_gap = max(worst_rate_gap, cert.best_rate - sol.sum_rate_tw)
        worst_power_slack = max(
            worst_power_slack, sol.consumed_power - cert.min_power_at_best - bound
        )
    elapsed = time.perf_counter() - start
    ok = worst_rate_gap <= 1e-6 and worst_power_slack <= 0.0 and elapsed < 60.0
    _report(
        "C1 oracle-optimality",
        ok,
        f"200 instances in {elapsed:.1f}s, worst rate gap {worst_rate_gap:.2e}, "
        f"worst power slack {worst_power_slack:.2e}",
    )


# ---------------------------------------------------------------------------
# C2: worked-instance exactness to 1e-10.
# ---------------------------------------------------------------------------


def test_c2_worked_instances_exact():
    g = tw.synthetic_gains([1.0], [1.0])
    asym = tw.SourceRates(r_ma=LN6, r_bar_1r=LN4, r_bar_2r=LN2)
    sol = tw.optimize(g, asym, 6.0)
    errs = [
        abs(sol.level1 - 2.0),
        abs(sol.level2 - 3.0),
        abs(sol.consumed_power - 3.0),
        abs(sol.bc_rates[0] - LN2),
        abs(sol.bc_rates[1] - LN3),
    ]
    ok = max(errs) <= 1e-10 and sol.step_trace == (1, 2, 3, 4, 5, 6, 7)
    sym = tw.SourceRates(r_ma=LN3, r_bar_1r=LN2, r_bar_2r=LN2)
    sol2 = tw.optimize(g, sym, 2.0)
    errs2 = [
        abs(sol2.level1 - np.sqrt(3.0)),
        abs(sol2.level2 - np.sqrt(3.0)),
        abs(sol2.consumed_power - 2.0 * (np.sqrt(3.0) - 1.0)),
    ]
    ok = ok and max(errs2) <= 1e-10
    _report(
        "C2 worked-instances",
        ok,
        f"asym err {max(errs):.1e}, path {'-'.join(map(str, sol.step_trace))}, "
        f"sym err {max(errs2):.1e}",
    )


# ---------------------------------------------------------------------------
# C3: feasibility and structural equalities on 1000 random instances.
# ---------------------------------------------------------------------------


def test_c3_feasibility_zero_violations():
    rng = np.random.default_rng(2003)
    violations = 0
    for _ in range(1000):
        _, _, gains, strategy = random_instance(rng)
        pr = float(rng.uniform(0.1, 10.0))
        sol = tw.optimize(gains, strategy, pr)
        lv = tw.relative_levels(gains, strategy, pr)
        ok = (
            rate_of_level(gains.alpha1, sol.level1) <= strategy.r_bar_2r + 1e-9
            and rate_of_level(gains.alpha2, sol.level2) <= strategy.r_bar_1r + 1e-9
            and sum(sol.bc_rates) <= strategy.r_ma + 1e-9
            and sol.consumed_power <= pr + 1e-9
        )
        if sol.level1 == sol.level2:
            ok = ok and abs(sol.level1 - min(lv.inv_mu_ma, lv.inv_lambda0)) <= 1e-10
        else:
            ok = ok and abs(min(sol.level1, sol.level2) - min(lv.inv_mu1, lv.inv_mu2)) <= 1e-10
        violations += not ok
    _report("C3 feasibility", violations == 0, f"1000 instances, {violations} violations")


# ---------------------------------------------------------------------------
# C4: pooled-level bound on 1000 random strategies; split-unimodality and
#     equal-rate-spread power monotonicity on 200 sampled chains/contours.
# ---------------------------------------------------------------------------


def _pooled_level_bound_violations(rng, n: int) -> int:
    violations = 0
    for _ in range(n):
        cfg = tw.SystemConfig(
            n1=int(rng.integers(1, 4)),
            n2=int(rng.integers(1, 4)),
            n_r=int(rng.integers(1, 5)),
            seed=int(rng.integers(2**31)),
        )
        ch = tw.generate_channels(cfg, 0)
        try:
            gains = tw.decompose(ch, cfg)
        except tw.RankZeroError:  # pragma: no cover
            continue
        d1 = random_psd(rng, cfg.n1, float(rng.uniform(0.1, 4.0)))
        d2 = random_psd(rng, cfg.n2, float(rng.uniform(0.1, 4.0)))
        strategy = tw.strategy_from_covariances(d1, d2, ch, cfg.sigmar_sq)
        lv = tw.relative_levels(gains, strategy, 1.0)
        if not lv.inv_mu_ma < max(lv.inv_mu1, lv.inv_mu2) + 1e-12:
            violations += 1
    return violations


def _unimodality_failures(rng, n: int) -> int:
    failures = 0
    for _ in range(n):
        g = tw.synthetic_gains(random_gain_list(rng), random_gain_list(rng))
        total = float(rng.uniform(0.5, 10.0))
        level0 = forward_level(g.pooled, total)
        lo = 1.0 / g.alpha1[0]
        hi = forward_level(g.alpha1, total)
        grid = np.unique(np.concatenate([np.linspace(lo, hi, 60), [np.clip(level0, lo, hi)]]))
        level2 = forward_level(
            g.alpha2, np.maximum(total - power_of_level(g.alpha1, grid), 0.0)
        )
        bc = rate_of_level(g.alpha1, grid) + rate_of_level(g.alpha2, level2)
        peak = int(np.argmax(bc))
        if not (np.all(np.diff(bc[: peak + 1]) >= -1e-9) and np.all(np.diff(bc[peak:]) <= 1e-9)):
            failures += 1
    return failures


def _contour_power_failures(rng, n: int) -> int:
    failures = checked = 0
    while checked < n:
        a_hi, a_lo = random_gain_list(rng), random_gain_list(rng)
        level_lo = float(rng.uniform(1.05, 3.0)) / a_lo[0]
        level_hi = level_lo * float(rng.uniform(1.05, 3.0))
        if level_hi <= 1.0 / a_hi[0]:
            continue
        delta = level_hi * float(rng.uniform(0.02, 0.3))
        gain = rate_of_level(a_hi, level_hi + delta) - rate_of_level(a_hi, level_hi)
        target = rate_of_level(a_lo, level_lo) - gain
        if target <= 1e-9 or gain <= 1e-12:
            continue
        level_lo_new = inverse_waterfill(a_lo, target).level
        before = power_of_level(a_hi, level_hi) + power_of_level(a_lo, level_lo)
        after = power_of_level(a_hi, level_hi + delta) + power_of_level(a_lo, level_lo_new)
        failures += not after > before
        checked += 1
    return failures


def test_c4_order_relations():
    rng = np.random.default_rng(2004)
    v1 = _pooled_level_bound_violations(rng, 1000)
    v2 = _unimodality_failures(rng, 200)
    v3 = _contour_power_failures(rng, 200)
    _report(
        "C4 level-order relations",
        v1 == v2 == v3 == 0,
        f"pooled-level bound {v1}/1000, unimodality {v2}/200, contour power {v3}/200 failures",
    )


# ---------------------------------------------------------------------------
# C5: step traces match the threshold classification on 1000 instances x 5
#     budget regimes straddling the thresholds.
# ---------------------------------------------------------------------------


def test_c5_step_path_conformance():
    rng = np.random.default_rng(2005)
    mismatches = 0
    compared = 0
    for _ in range(1000):
        _, _, gains, strategy = random_instance(rng)
        led0 = tw.thresholds(gains, tw.relative_levels(gains, strategy, 1.0), strategy)
        ths = sorted({led0.p_ma, led0.p_l, led0.p_t, led0.p_s, led0.p_bar_ma})
        budgets = [0.5 * ths[0]] if ths[0] > 1e-9 else [1e-3]
        budgets += [0.5 * (a + b) for a, b in zip(ths, ths[1:]) if b - a > 1e-6]
        budgets.append(1.5 * ths[-1] + 0.1)
        for pr in budgets:
            lv = tw.relative_levels(gains, strategy, pr)
            led = tw.thresholds(gains, lv, strategy)
            sol = tw.optimize(gains, strategy, pr)
            mismatches += sol.step_trace != tw.classify_case(led, lv, pr)
            compared += 1
    _report(
        "C5 step-path conformance",
        mismatches == 0,
        f"{compared} optimizer runs, {mismatches} trace mismatches",
    )


# ---------------------------------------------------------------------------
# C6: budget-sweep qualitative shape on one fixed realization (50 points).
# ---------------------------------------------------------------------------


def test_c6_budget_sweep_shape():
    cfg = tw.SystemConfig(n1=6, n2=5, n_r=8, p1_max=3.0, p2_max=3.0, pr_max=3.0, seed=2026)
    gains = tw.decompose(tw.generate_channels(cfg, 0), cfg)
    strategy = tw.max_ma_strategy(tw.generate_channels(cfg, 0), cfg)
    led = tw.thresholds(gains, tw.relative_levels(gains, strategy, 1.0), strategy)
    saturation = led.p_bar_ma
    spec = ScenarioSpec(
        scenario="prmax-sweep", config=cfg, trials=1,
        sweep_start=0.05, sweep_stop=max(2.0 * saturation, saturation + 1.0),
        sweep_points=50, resolution=1e-3,
    )
    records, _ = run_prmax_sweep(spec)
    consumed = np.asarray([r.consumed_power for r in records])
    r_ma = records[0].r_ma
    ok = bool(np.all(np.diff(consumed) >= -1e-12))
    detail = [f"saturation {saturation:.3f} W"]
    for rec in records:
        ok &= rec.bc_sum <= r_ma + 1e-9
        ok &= abs(rec.sum_rate_tw - rec.baseline_sum_rate_tw) <= 1e-9
        if rec.pr_max >= saturation + 0.1:
            ok &= abs(rec.consumed_power - saturation) <= 1e-9
        if rec.pr_max >= saturation + 0.5:
            ok &= rec.baseline_bc_sum > r_ma + 1e-6
    _report("C6 budget-sweep shape", ok, ", ".join(detail))


# ---------------------------------------------------------------------------
# C7: asymmetry study at 1000 trials; the symmetric cell dominates every
#     cell with antenna asymmetry >= 2 in average sum rate and in the
#     efficient-allocation fraction (non-overlapping 95% bootstrap CIs).
# ---------------------------------------------------------------------------


def _bootstrap_ci(values, rng, n_boot=1000):
    values = np.asarray(values, dtype=float)
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    means = values[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


def test_c7_asymmetry_study():
    start = time.perf_counter()
    cfg = tw.SystemConfig(n1=3, n2=3, n_r=6, p1_max=2.5, p2_max=2.5, pr_max=3.0, seed=2007)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=1000)
    records, aggregates = run_asymmetry_study(spec)
    elapsed = time.perf_counter() - start

    cells = {}
    for rec in records:
        key = (rec.n1, rec.n2, rec.p1_max)
        cells.setdefault(key, {"rate": [], "eff": []})
        cells[key]["rate"].append(rec.sum_rate_tw)
        cells[key]["eff"].append(float(rec.efficient))
    boot = np.random.default_rng(7)
    sym_key = next(k for k in cells if k[0] == 3 and abs(k[2] - 2.5) < 1e-9)
    sym_rate_ci = _bootstrap_ci(cells[sym_key]["rate"], boot)
    sym_eff_ci = _bootstrap_ci(cells[sym_key]["eff"], boot)
    ok = elapsed < 600.0
    worst_rate_margin = worst_eff_margin = np.inf
    for key, data in cells.items():
        if abs(key[0] - key[1]) < 2:
            continue
        rate_ci = _bootstrap_ci(data["rate"], boot)
        eff_ci = _bootstrap_ci(data["eff"], boot)
        worst_rate_margin = min(worst_rate_margin, sym_rate_ci[0] - rate_ci[1])
        worst_eff_margin = min(worst_eff_margin, sym_eff_ci[0] - eff_ci[1])
        ok &= sym_rate_ci[0] > rate_ci[1]
        ok &= sym_eff_ci[0] > eff_ci[1]
    _report(
        "C7 asymmetry-study",
        ok,
        f"{elapsed:.0f}s, CI margins: rate {worst_rate_margin:.3f} nats, "
        f"efficiency {worst_eff_margin:.3f}",
    )


# ---------------------------------------------------------------------------
# C8: kernel round trips on 1e4 random draws; log-det matches the
#     eigenvalue oracle to 1e-10.
# ---------------------------------------------------------------------------


def test_c8_kernel_round_trips():
    rng = np.random.default_rng(2008)
    worst_level = 0.0
    for _ in range(10_000):
        gains = random_gain_list(rng, max_len=6)
        budget = float(rng.uniform(0.0, 50.0))
        fwd = forward_waterfill(gains, budget)
        inv = inverse_waterfill(gains, fwd.rate)
        worst_level = max(worst_level, abs(inv.level - fwd.level) / max(1.0, fwd.level))
    worst_logdet = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        s = random_psd(rng, n, float(rng.uniform(0.1, 20.0)))
        oracle = float(np.sum(np.log1p(np.clip(np.linalg.eigvalsh(s), 0.0, None))))
        worst_logdet = max(worst_logdet, abs(tw.logdet_identity_plus(s) - oracle))
    ok = worst_level < 1e-10 and worst_logdet < 1e-10
    _report(
        "C8 kernel-round-trips",
        ok,
        f"worst relative level error {worst_level:.2e}, worst log-det error {worst_logdet:.2e}",
    )
