"""Scenario runners and CLI: schemas, determinism, exit codes."""

import dataclasses
import json
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay import sim_cli
from twrelay.sim_cli import (
    LEMMA2_LEVEL_POINTS,
    SCENARIOS,
    ScenarioSpec,
    main,
    parse_args,
    run_asymmetry_study,
    run_lemma2_sweep,
    run_prmax_sweep,
    run_single,
)

LN6 = np.log(6.0)

ASYM_INSTANCE = {
    "alpha1": [1.0],
    "alpha2": [1.0],
    "r_ma": float(np.log(6.0)),
    "r_bar_1r": float(np.log(4.0)),
    "r_bar_2r": float(np.log(2.0)),
    "pr_max": 6.0,
}


def small_config(**overrides):
    base = dict(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.5, pr_max=2.0, seed=11)
    base.update(overrides)
    return tw.SystemConfig(**base)


def _read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


# --- spec validation ---------------------------------------------------------


def test_spec_validation():
    cfg = small_config()
    with pytest.raises(tw.ConfigError):
        ScenarioSpec(scenario="nope", config=cfg)
    with pytest.raises(tw.ConfigError):
        ScenarioSpec(scenario="single", config=cfg, trials=0)
    with pytest.raises(tw.ConfigError):
        ScenarioSpec(scenario="single", config=cfg, sweep_points=0)
    with pytest.raises(tw.ConfigError):
        ScenarioSpec(scenario="single", config=cfg, fmt="xml")
    with pytest.raises(tw.ConfigError):
        ScenarioSpec(scenario="prmax-sweep", config=cfg, sweep_start=2.0, sweep_stop=1.0)
    for resolution in (0.0, -1e-3):
        with pytest.raises(tw.ConfigError):
            ScenarioSpec(scenario="single", config=cfg, certify=True, resolution=resolution)


# --- lemma2 sweep -------------------------------------------------------------


def test_lemma2_curves_unimodal_with_peak_at_pooled_level():
    spec = ScenarioSpec(
        scenario="lemma2-sweep", config=small_config(), trials=2,
        sweep_start=4.0, sweep_stop=7.0, sweep_points=3,
    )
    records, aggregates = run_lemma2_sweep(spec)
    assert aggregates["skipped"] == 0
    curves = {}
    for rec in records:
        curves.setdefault((rec.trial, rec.ratio_db), []).append(rec)
    assert len(curves) == 2 * 3
    for rows in curves.values():
        levels = np.asarray([r.inv_lambda1 for r in rows])
        bc = np.asarray([r.bc_sum for r in rows])
        step = np.max(np.diff(levels))
        peak = int(np.argmax(bc))
        assert np.all(np.diff(bc[: peak + 1]) >= -1e-9)
        assert np.all(np.diff(bc[peak:]) <= 1e-9)
        level0 = rows[0].inv_lambda0
        best_feasible = np.clip(level0, levels[0], levels[-1])
        assert abs(levels[peak] - best_feasible) <= step + 1e-9


def test_lemma2_higher_ratio_dominates_at_shared_levels():
    spec = ScenarioSpec(
        scenario="lemma2-sweep", config=small_config(), trials=1,
        sweep_start=4.0, sweep_stop=7.0, sweep_points=4,
    )
    records, _ = run_lemma2_sweep(spec)
    by_ratio = {}
    for rec in records:
        by_ratio.setdefault(rec.ratio_db, {})[rec.inv_lambda1] = rec.bc_sum
    ratios = sorted(by_ratio)
    for low, high in zip(ratios, ratios[1:]):
        shared = set(by_ratio[low]) & set(by_ratio[high])
        assert shared
        for level in shared:
            assert by_ratio[high][level] >= by_ratio[low][level] - 1e-9


# --- prmax sweep ---------------------------------------------------------------


def test_prmax_sweep_columns_and_claims():
    cfg = small_config()
    spec = ScenarioSpec(
        scenario="prmax-sweep", config=cfg, trials=1,
        sweep_start=0.02, sweep_stop=6.0, sweep_points=14, resolution=1e-3,
    )
    records, _ = run_prmax_sweep(spec)
    assert len(records) == 14
    consumed = np.asarray([r.consumed_power for r in records])
    r_ma = records[0].r_ma
    assert np.all(np.diff(consumed) >= -1e-12)
    for rec in records:
        assert rec.bc_sum <= r_ma + 1e-9
        assert abs(rec.sum_rate_tw - rec.baseline_sum_rate_tw) < 1e-9
        assert rec.baseline_consumed <= rec.pr_max + 1e-9
    # While the budget is too small for any rate ceiling to bind, power
    # minimization changes nothing and the two solutions coincide.
    gains = tw.decompose(tw.generate_channels(cfg, 0), cfg)
    strategy = tw.max_ma_strategy(tw.generate_channels(cfg, 0), cfg)
    led = tw.thresholds(gains, tw.relative_levels(gains, strategy, 1.0), strategy)
    small = [r for r in records if r.pr_max < min(led.p_l, led.p_ma) - 1e-6]
    assert small
    for rec in small:
        # Same allocation: identical consumed power and per-direction rates
        # (levels below a direction's first breakpoint all encode "off", so
        # the raw level columns are only comparable through their powers).
        assert abs(rec.consumed_power - rec.baseline_consumed) < 1e-9
        assert abs(rec.bc_rate_1 - rec.baseline_bc_1) < 1e-9
        assert abs(rec.bc_rate_2 - rec.baseline_bc_2) < 1e-9
        p1 = tw.power_of_level(gains.alpha1, rec.inv_lambda1)
        p1_base = tw.power_of_level(gains.alpha1, rec.baseline_inv_lambda1)
        assert abs(p1 - p1_base) < 1e-9


# --- asymmetry study ------------------------------------------------------------


def test_asymmetry_study_shapes_and_echo():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.0, pr_max=1.5, seed=5)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=3)
    records, aggregates = run_asymmetry_study(spec)
    assert len(aggregates) == 3 * 5  # n1 in {1,2,3} x five power splits
    for agg in aggregates:
        assert agg["trials"] == 3
        assert agg["completed"] + agg["skipped"] == 3
        assert agg["n1"] + agg["n2"] == 4
        assert abs(agg["p1_max"] + agg["p2_max"] - 2.0) < 1e-12
    assert len(records) == sum(a["completed"] for a in aggregates)


def test_asymmetry_study_trials_are_schedule_independent():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.0, pr_max=1.5, seed=5)
    short, _ = run_asymmetry_study(ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=2))
    long, _ = run_asymmetry_study(ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=4))
    long_prefix = [r for r in long if r.trial < 2]
    assert short == long_prefix
    # Aggregates are plain means of per-trial records, so any schedule that
    # preserves per-trial values reproduces them.
    _, aggs = run_asymmetry_study(ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=2))
    _assert_aggregates_are_record_means(short, aggs)


def _assert_aggregates_are_record_means(records, aggregates):
    for agg in aggregates:
        cell = [r for r in records if (r.n1, r.p1_max) == (agg["n1"], agg["p1_max"])]
        assert agg["completed"] == len(cell)
        for key, field in (
            ("avg_sum_rate_tw", "sum_rate_tw"),
            ("avg_consumed_power", "consumed_power"),
            ("efficient_fraction", "efficient"),
        ):
            if cell:
                assert agg[key] == float(np.mean([getattr(r, field) for r in cell]))
            else:
                assert np.isnan(agg[key])


def test_asymmetry_study_non_convergence_is_per_cell(monkeypatch):
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.0, pr_max=1.5, seed=5)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=4)
    records, aggregates = run_asymmetry_study(spec)
    # Each cell solved alone, with the sweeps it needs.
    solved = {}
    for n1 in (1, 2, 3):
        base = dataclasses.replace(cfg, n1=n1, n2=4 - n1)
        for trial in range(spec.trials):
            channels = tw.generate_channels(base, trial)
            for p1 in np.linspace(0.1, 0.9, 5) * 2.0:
                cell = dataclasses.replace(base, p1_max=float(p1), p2_max=2.0 - float(p1))
                solved[trial, n1, float(p1)] = (tw.max_ma_strategy(channels, cell), cell, channels)
    limit = int(np.median([st.sweeps for st, _, _ in solved.values()]))
    failing = {key for key, (st, _, _) in solved.items() if st.sweeps > limit}
    assert 0 < len(failing) < len(solved)

    monkeypatch.setattr(tw.ma_phase, "MAX_SWEEPS", limit)
    patched, patched_aggs = run_asymmetry_study(spec)
    assert patched == [r for r in records if (r.trial, r.n1, r.p1_max) not in failing]
    for agg, before in zip(patched_aggs, aggregates, strict=True):
        cell = (agg["n1"], agg["p1_max"])
        failed = sum(1 for key in failing if key[1:] == cell)
        assert agg["skipped"] == failed and agg["completed"] == spec.trials - failed
        if not failed:
            assert agg == before
    _assert_aggregates_are_record_means(patched, patched_aggs)
    key = next(iter(failing))
    _, cell_cfg, channels = solved[key]
    with pytest.raises(tw.NoConvergenceError):
        tw.max_ma_strategy(channels, cell_cfg)


@pytest.mark.parametrize("batch_cells", [4096, 40, 7])
def test_asymmetry_study_batch_bound_changes_no_record(monkeypatch, batch_cells):
    # Gain lists narrower than 8: each record is its cell's own max_ma_strategy
    # and optimize, bit for bit, in whatever blocks the cells run.
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.0, pr_max=1.5, seed=5)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=4)
    monkeypatch.setattr(tw.sim_cli, "STUDY_BATCH_CELLS", batch_cells)
    records, _ = run_asymmetry_study(spec)
    own = []
    for n1 in (1, 2, 3):
        base = dataclasses.replace(cfg, n1=n1, n2=4 - n1)
        for trial in range(spec.trials):
            channels = tw.generate_channels(base, trial)
            gains = tw.decompose(channels, base)
            for p1 in (np.linspace(0.1, 0.9, 5) * 2.0).tolist():
                strategy = tw.max_ma_strategy(channels, dataclasses.replace(base, p1_max=p1, p2_max=2.0 - p1))
                sol = tw.optimize(gains, strategy, cfg.pr_max)
                own.append(sim_cli.AsymRecord(trial, n1, 4 - n1, p1, 2.0 - p1, sol.sum_rate_tw,
                                              sol.consumed_power, sol.efficient))
    assert len(records) == len(own) == 60
    for record, want in zip(records, own):
        assert np.array(record[3:7]).tobytes() == np.array(want[3:7]).tobytes() and record == want


def _drop_trial(monkeypatch, config, trial, reason):
    """Mark `trial` of the antenna split of `config` as dropped, for `reason`, in the study's batched decomposition."""
    hr1 = tw.generate_channels(config, trial).hr1
    real = sim_cli.decompose_groups

    def decompose_groups(groups, sigma1_sq, sigma2_sq):
        gains = real(groups, sigma1_sq, sigma2_sq)
        rows = [h for hr1s, _ in groups for h in hr1s]  # the rows of gains, in order
        for i, h in enumerate(rows):
            if h.shape == hr1.shape and np.array_equal(h, hr1):
                gains.reasons[i] = reason
        return gains

    monkeypatch.setattr(sim_cli, "decompose_groups", decompose_groups)


def _reference_study_records(spec, dropped=frozenset()):
    """The study's records as one max_ma_strategies call per antenna split, then one optimize_many
    call per block of STUDY_BATCH_CELLS drawn cells in record order, on its cells that found a strategy.
    Each (n1, trial) in `dropped` is a trial whose downlinks do not decompose."""
    cfg = spec.config
    n_total, p_total = cfg.n1 + cfg.n2, cfg.p1_max + cfg.p2_max
    p1_splits = [float(p1) for p1 in np.linspace(0.1, 0.9, 5) * p_total]
    drawn = []  # (n1, trial, p1, gains, strategy or None) of each drawn cell, in record order
    for n1 in range(1, n_total):
        base = dataclasses.replace(cfg, n1=n1, n2=n_total - n1)
        cells = []
        for trial in range(spec.trials):
            channels = tw.generate_channels(base, trial)
            if (n1, trial) in dropped:
                continue
            try:
                gains = tw.decompose(channels, base)
            except (tw.RankZeroError, ValueError):
                continue
            cells += [(trial, channels, gains, p1) for p1 in p1_splits]
        p1 = np.array([cell[3] for cell in cells])
        strategies = tw.max_ma_strategies(
            np.array([cell[1].h1r for cell in cells]).reshape(-1, base.n_r, base.n1),
            np.array([cell[1].h2r for cell in cells]).reshape(-1, base.n_r, base.n2),
            p1, p_total - p1, base.sigmar_sq,
        )
        drawn += [(n1, trial, p1, gains, st) for (trial, _, gains, p1), st in zip(cells, strategies)]
    records = []
    for start in range(0, len(drawn), sim_cli.STUDY_BATCH_CELLS):
        jobs = [cell for cell in drawn[start : start + sim_cli.STUDY_BATCH_CELLS] if cell[4] is not None]
        solutions = tw.optimize_many([job[3] for job in jobs], [job[4] for job in jobs], cfg.pr_max)
        records += [
            sim_cli.AsymRecord(trial, n1, n_total - n1, p1, p_total - p1, sol.sum_rate_tw,
                               sol.consumed_power, sol.efficient)
            for (n1, trial, p1, _, _), sol in zip(jobs, solutions)
        ]
    return records


@pytest.mark.parametrize("batch_cells", [4096, 40, 7])
def test_asymmetry_study_records_match_one_ma_call_per_split(monkeypatch, batch_cells):
    # n1 + n2 = 10 on n_r = 10: gain lists of 8 or more, where numpy's own sum
    # would go pairwise; both engines add term by term, so no record depends on
    # which cells share a call. Chunks of 40 cells span antenna splits, chunks
    # of 7 hold one trial's five cells, and 4096 holds the whole study.
    monkeypatch.setattr(sim_cli, "STUDY_BATCH_CELLS", batch_cells)
    cfg = tw.SystemConfig(n1=5, n2=5, n_r=10, p1_max=2.5, p2_max=2.5, pr_max=3.0, seed=17)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=4)
    # Trial 2 of the n1 = 4 split is rank zero.
    _drop_trial(monkeypatch, dataclasses.replace(cfg, n1=4, n2=6), 2, "downlink channel has no nonzero singular value")
    records, aggregates = run_asymmetry_study(spec)
    assert records == _reference_study_records(spec, {(4, 2)})
    assert [(a["n1"], a["skipped"]) for a in aggregates if a["skipped"]] == [(4, 1)] * 5
    assert len({r.n1 for r in records}) == 9


def test_asymmetry_study_chunk_whose_one_antenna_split_is_wholly_dropped(monkeypatch):
    # Chunks of 15 cells hold three (split, trial) rows: rows 15-17 are trial 3
    # of the n1 = 4 split, dropped here, and trials 0-1 of n1 = 5. The n1 = 4
    # MA group of that chunk is empty; the records are still the reference's.
    monkeypatch.setattr(sim_cli, "STUDY_BATCH_CELLS", 15)
    cfg = tw.SystemConfig(n1=5, n2=5, n_r=10, p1_max=2.5, p2_max=2.5, pr_max=3.0, seed=17)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=4)
    _drop_trial(monkeypatch, dataclasses.replace(cfg, n1=4, n2=6), 3, "downlink channel has no nonzero singular value")
    records, aggregates = run_asymmetry_study(spec)
    assert records == _reference_study_records(spec, {(4, 3)})
    assert [(a["n1"], a["skipped"]) for a in aggregates if a["skipped"]] == [(4, 1)] * 5


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 40])
def test_asymmetry_study_aggregates_are_np_mean_bit_for_bit(monkeypatch, trials):
    # numpy sums 8 or more terms pairwise: each cell's aggregate must be
    # np.mean of its records, in trial order, whatever its record count.
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.0, pr_max=1.5, seed=5)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=trials)
    # The last trial of the n1 = 2 split is rank zero.
    _drop_trial(monkeypatch, cfg, trials - 1, "downlink channel has no nonzero singular value")
    records, aggregates = run_asymmetry_study(spec)
    assert [a["completed"] for a in aggregates] == [trials] * 5 + [trials - 1] * 5 + [trials] * 5
    for agg in aggregates:
        cell = [r for r in records if (r.n1, r.p1_max) == (agg["n1"], agg["p1_max"])]
        assert [r.trial for r in cell] == sorted(r.trial for r in cell)
        for key, field in (("avg_sum_rate_tw", "sum_rate_tw"), ("avg_consumed_power", "consumed_power"),
                           ("efficient_fraction", "efficient")):
            want = float(np.mean([getattr(r, field) for r in cell])) if cell else float("nan")
            assert type(agg[key]) is float and np.array([agg[key]]).tobytes() == np.array([want]).tobytes(), key


def test_asymmetry_study_skips_trials_whose_gains_overflow(tmp_path):
    # sigma^2 = 3e-308 is a normal float, but every downlink gain s^2/sigma^2
    # above ~0.54 overflows: each trial is skipped in every cell of its split.
    out = tmp_path / "study.json"
    argv = ["--scenario", "asymmetry-study", "--trials", "3", "--sigma", "3e-308",
            "--deterministic", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["records"] == []
    assert [(a["completed"], a["skipped"]) for a in payload["aggregates"]] == [(0, 3)] * 25


@pytest.mark.parametrize("flags", [
    ["--scenario", "single", "--p2", "0", "--certify"],
    ["--scenario", "single", "--p1", "0", "--certify"],
    ["--scenario", "asymmetry-study", "--trials", "5", "--sigma", "1e6"],
    ["--scenario", "asymmetry-study", "--trials", "5", "--sigma", "1e9"],
    ["--scenario", "asymmetry-study", "--trials", "2", "--sigma", "1e300"],
])
def test_rate_sum_edge_runs_finish_within_the_relay_budget(tmp_path, flags):
    # A zero source budget, or noise so strong that the uplinks' rates add up
    # within 1e-12 nats, puts r_ma on r_bar_1r + r_bar_2r. These runs exited
    # 3; then, at sigma^2 = 1e9, 17 of the 125 study records reported up to
    # 3.0000000596 W on the 3 W budget (levels near 1/alpha ~ 1e9 W round
    # to 1.2e-7 W), and at 1e300 up to 5.7e285 W.
    out = tmp_path / "run.json"
    assert main([*flags, "--deterministic", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    pr = payload["config"]["pr_max"]
    assert payload["records"]
    for rec in payload["records"]:
        assert rec["consumed_power"] <= pr + 1e-9
        if "oracle_best_rate" in rec:
            assert abs(rec["oracle_best_rate"] - rec["sum_rate_tw"]) <= 1e-6


def test_asymmetry_study_skips_ill_conditioned_ma_instances(tmp_path):
    # At sigma^2 = 1e-15 the MA phase of some cells meets a numerically
    # singular interference-plus-noise matrix; those cells are skipped.
    out = tmp_path / "study.json"
    argv = ["--scenario", "asymmetry-study", "--trials", "40", "--sigma", "1e-15",
            "--deterministic", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    aggregates = json.loads(out.read_text())["aggregates"]
    assert all(a["completed"] + a["skipped"] == 40 for a in aggregates)
    assert sum(a["skipped"] for a in aggregates) > 0


def test_asymmetry_study_counts_an_overflowing_trial_like_a_rank_zero_one(monkeypatch):
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, p1_max=1.0, p2_max=1.0, pr_max=1.5, seed=5)
    spec = ScenarioSpec(scenario="asymmetry-study", config=cfg, trials=3)
    records, aggregates = run_asymmetry_study(spec)
    _drop_trial(monkeypatch, dataclasses.replace(cfg, n1=1, n2=3), 1,
                "alpha1 must be finite, strictly positive and sorted descending")
    patched, patched_aggs = run_asymmetry_study(spec)
    assert patched == [r for r in records if (r.trial, r.n1) != (1, 1)]
    for agg, before in zip(patched_aggs, aggregates, strict=True):
        if agg["n1"] == 1:
            assert (agg["completed"], agg["skipped"]) == (before["completed"] - 1, before["skipped"] + 1)
        else:
            assert agg == before


# --- single --------------------------------------------------------------------


def test_single_reports_a_numerically_singular_ma_instance(capsys):
    assert main(["--scenario", "single", "--sigma", "1e-300", "--deterministic"]) == 3
    assert "interference-plus-noise matrix" in capsys.readouterr().err


def test_single_with_certification(tmp_path):
    spec = ScenarioSpec(
        scenario="single", config=small_config(), certify=True, resolution=1e-3,
    )
    records, _ = run_single(spec)
    (rec,) = records
    assert rec.sum_rate_tw >= rec.oracle_best_rate - 1e-6
    assert rec.consumed_power <= rec.oracle_min_power + 1e-2


def test_single_from_instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(ASYM_INSTANCE))
    spec = ScenarioSpec(
        scenario="single", config=small_config(), instance_path=str(path),
    )
    records, _ = run_single(spec)
    (rec,) = records
    assert_allclose([rec.inv_lambda1, rec.inv_lambda2], [2.0, 3.0], atol=1e-10)
    assert_allclose(rec.consumed_power, 3.0, atol=1e-10)
    assert rec.step_path == "1-2-3-4-5-6-7"


# --- CLI ------------------------------------------------------------------------


def test_cli_single_prints_broadcast_rates_past_the_float_range(tmp_path):
    # alpha * level overflows at 710 nats a direction: the bc columns print
    # 710, with no RuntimeWarning (an error under pytest, pyproject.toml).
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({"alpha1": [1e10], "alpha2": [1e10], "r_ma": 1420.0, "r_bar_1r": 710.0,
                                "r_bar_2r": 710.0, "pr_max": 1e300}))
    out = tmp_path / "out.csv"
    assert main(["--scenario", "single", "--instance", str(inst), "--deterministic", "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert (row["bc_rate_1"], row["bc_rate_2"], row["bc_sum"], row["sum_rate_tw"]) == ("710", "710", "1420", "710")


def test_cli_single_certifies_an_instance_with_a_gain_below_one_over_the_float_maximum(tmp_path):
    # That gain's 1/alpha is past the float range: it is inert, as a padded
    # cell is, so the run exits 0 with no RuntimeWarning and prints what the
    # instance without it prints.
    rows = []
    for alpha1 in ([1.0, 1e-310], [1.0]):
        inst, out = tmp_path / "instance.json", tmp_path / "out.csv"
        inst.write_text(json.dumps({**ASYM_INSTANCE, "alpha1": alpha1}))
        assert main(["--scenario", "single", "--instance", str(inst), "--certify", "--deterministic",
                     "--out", str(out)]) == 0
        (row,) = _read_csv(out)
        rows.append({k: v for k, v in row.items() if k != "nr"})
    assert rows[0] == rows[1]


def test_cli_single_worked_instance(tmp_path):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(ASYM_INSTANCE))
    out = tmp_path / "out.csv"
    code = main([
        "--scenario", "single", "--instance", str(inst),
        "--deterministic", "--out", str(out),
    ])
    assert code == 0
    (row,) = _read_csv(out)
    assert float(row["inv_lambda1"]) == pytest.approx(2.0, abs=1e-9)
    assert float(row["inv_lambda2"]) == pytest.approx(3.0, abs=1e-9)
    assert float(row["consumed_power"]) == pytest.approx(3.0, abs=1e-9)
    assert row["step_path"] == "1-2-3-4-5-6-7"
    assert float(row["sum_rate_tw"]) == pytest.approx(0.5 * LN6, abs=1e-9)


def test_cli_deterministic_output_is_byte_identical(tmp_path):
    args = [
        "--scenario", "single", "--n1", "2", "--n2", "2", "--nr", "2",
        "--seed", "3", "--deterministic", "--format", "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_timestamp_header_unless_deterministic(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["--scenario", "single", "--nr", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith("# generated ")
    assert main(["--scenario", "single", "--nr", "2", "--out", str(out), "--deterministic"]) == 0
    assert not out.read_text().startswith("#")


def test_cli_certify_adds_oracle_columns(tmp_path):
    out = tmp_path / "x.csv"
    assert main([
        "--scenario", "single", "--n1", "1", "--n2", "1", "--nr", "2",
        "--certify", "--deterministic", "--out", str(out),
    ]) == 0
    (row,) = _read_csv(out)
    assert "oracle_best_rate" in row
    assert float(row["sum_rate_tw"]) >= float(row["oracle_best_rate"]) - 1e-6


def test_cli_exit_code_on_config_error(tmp_path):
    assert main(["--scenario", "single", "--trials", "0"]) == 2
    assert main(["--scenario", "single", "--sigma", "0"]) == 2
    assert main(["--scenario", "single", "--sigma", "nan"]) == 2
    assert main(["--scenario", "single", "--sigma", "1e-320", "--deterministic"]) == 2
    assert main(["--scenario", "single", "--sigma", "1e-308", "--deterministic"]) == 2
    assert main(["--scenario", "single", "--p1", "nan"]) == 2
    assert main(["--scenario", "single", "--pr", "nan", "--deterministic"]) == 2
    assert main(["--scenario", "single", "--pr", "inf"]) == 2
    assert main(["--scenario", "single", "--instance", "/no/such/file.json"]) == 2
    sweep = ["--sweep-start", "nan", "--sweep-stop", "nan", "--deterministic"]
    assert main(["--scenario", "lemma2-sweep", *sweep]) == 2
    assert main(["--scenario", "prmax-sweep", "--sweep-start", "nan"]) == 2
    assert main(["--scenario", "single", "--certify", "--resolution", "nan"]) == 2
    assert main(["--scenario", "single", "--certify", "--resolution", "inf"]) == 2
    # Finite flags whose derived budget overflows: P1 + P2, and 10^(400) * sigma^2.
    assert main(["--scenario", "asymmetry-study", "--p1", "1e308", "--p2", "1e308"]) == 2
    assert main(["--scenario", "lemma2-sweep", "--sweep-stop", "4000"]) == 2
    for name, change in (
        ("inf_gain", {"alpha1": [float("inf")]}),
        ("nan_gain", {"alpha1": [float("nan"), 1.0]}),
        ("nan_budget", {"pr_max": float("nan")}),
        ("int_budget_beyond_floats", {"pr_max": 10**400}),
        ("int_gain_beyond_floats", {"alpha2": [10**400]}),
        # The rates rule, and the order rule r_ma <= r_bar_1r + r_bar_2r.
        ("negative_rate", {"r_ma": -1}),
        ("nan_rate", {"r_ma": float("nan")}),
        ("inf_rate", {"r_ma": float("inf")}),  # as 1e400 in the file reads
        ("int_rate_beyond_floats", {"r_ma": 10**400}),
        ("rates_out_of_order", {"r_ma": 5, "r_bar_1r": 0.4, "r_bar_2r": 0.3}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**ASYM_INSTANCE, **change}))
        assert main(["--scenario", "single", "--instance", str(path), "--deterministic"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["--scenario", "not-a-scenario"])
    assert err.value.code == 2


def test_cli_exit_code_on_negative_seed(tmp_path, capsys):
    # SeedSequence rejects a negative seed; the study once counted that
    # error as a skipped trial and exited 0 with only the CSV header.
    for scenario in SCENARIOS:
        out = tmp_path / f"{scenario}.csv"
        argv = ["--scenario", scenario, "--seed", "-5", "--trials", "2", "--deterministic", "--out", str(out)]
        assert main(argv) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()


def test_cli_exit_code_on_negative_relay_budget_sweep(tmp_path, capsys):
    assert main(["--scenario", "prmax-sweep", "--sweep-start", "-1", "--deterministic"]) == 2
    assert "relay budget sweep must be nonnegative" in capsys.readouterr().err
    with pytest.raises(tw.ConfigError):
        ScenarioSpec(scenario="prmax-sweep", config=small_config(), sweep_start=-0.5, sweep_stop=1.0)
    # lemma2-sweep sweeps a power-to-noise ratio in dB, which may be negative.
    out = tmp_path / "lemma2.csv"
    argv = ["--scenario", "lemma2-sweep", "--sweep-start", "-3", "--sweep-stop", "-1", "--sweep-points", "2",
            "--deterministic", "--out", str(out)]
    assert main(argv) == 0
    assert len(_read_csv(out)) > 0


def test_an_instance_file_outside_single_is_a_config_error(tmp_path, capsys):
    # Only single reads --instance: every other scenario refuses the flag
    # (exit 2), whether the file exists or not.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(ASYM_INSTANCE))
    for scenario in set(SCENARIOS) - {"single"}:
        for instance in (str(path), "/no/such.json"):
            assert main(["--scenario", scenario, "--instance", instance, "--deterministic"]) == 2
            assert "--instance" in capsys.readouterr().err
        with pytest.raises(tw.ConfigError, match="read only by the single scenario"):
            ScenarioSpec(scenario=scenario, config=small_config(), instance_path=str(path))
    ScenarioSpec(scenario="single", config=small_config(), instance_path=str(path))


def test_certify_outside_single_and_prmax_sweep_is_a_config_error(capsys):
    # asymmetry-study and lemma2-sweep never certify, so they refuse --certify
    # (exit 2). prmax-sweep always certifies, so it takes the flag, as single
    # does.
    for scenario in ("asymmetry-study", "lemma2-sweep"):
        assert main(["--scenario", scenario, "--trials", "1", "--certify", "--deterministic"]) == 2
        assert "--certify" in capsys.readouterr().err
        with pytest.raises(tw.ConfigError, match="read only by single and prmax-sweep"):
            ScenarioSpec(scenario=scenario, config=small_config(), certify=True)
    for scenario in ("single", "prmax-sweep"):
        assert ScenarioSpec(scenario=scenario, config=small_config(), certify=True).certify


def test_cli_exit_code_on_a_grid_beyond_the_grid_size_rule(capsys):
    # A 1e-12 W resolution asks for about 1e12 grid levels a direction: a
    # config error (exit 2) with the rule's message, not an internal one.
    for scenario in ("single", "prmax-sweep"):
        assert main(["--scenario", scenario, "--certify", "--resolution", "1e-12", "--deterministic"]) == 2
        assert "at most 10,000,000 levels per direction" in capsys.readouterr().err


def test_parse_args_carries_nothing_between_calls():
    # One parser serves every call in the process: a flag given once must
    # not reappear in a later parse that omits it.
    first = parse_args(["--scenario", "single", "--pr", "5", "--certify", "--seed", "4"])
    assert (first.pr_max, first.certify, first.seed) == (5.0, True, 4)
    second = parse_args(["--scenario", "single"])
    assert (second.certify, second.seed) == (False, 0)
    assert second.pr_max == SCENARIOS["single"].defaults["pr_max"]
    assert vars(second) == vars(parse_args(["--scenario", "single"]))


def test_cli_exit_code_on_runtime_error(tmp_path):
    out = tmp_path / "missing" / "dir" / "x.csv"
    assert main(["--scenario", "single", "--nr", "2", "--out", str(out)]) == 3


def test_json_structure(tmp_path):
    out = tmp_path / "x.json"
    assert main([
        "--scenario", "asymmetry-study", "--n1", "1", "--n2", "1", "--nr", "2",
        "--trials", "2", "--deterministic", "--format", "json", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "records", "aggregates"}
    assert payload["config"]["scenario"] == "asymmetry-study"
    assert isinstance(payload["records"], list)
    assert isinstance(payload["aggregates"], list)


def test_lemma2_record_count_matches_feasible_grid():
    spec = ScenarioSpec(
        scenario="lemma2-sweep", config=small_config(), trials=1,
        sweep_start=5.0, sweep_stop=5.0, sweep_points=1,
    )
    records, _ = run_lemma2_sweep(spec)
    # Single ratio: the whole shared grid is feasible.
    assert len(records) == LEMMA2_LEVEL_POINTS


def test_lemma2_sweep_skips_a_trial_whose_gains_overflow(tmp_path):
    # At sigma 2.3e-308 every default trial has a gain s^2 / sigma past the
    # float range: each trial is dropped and counted, as the asymmetry study
    # drops it, and the run exits 0, warning-free.
    out = tmp_path / "lemma2.json"
    argv = ["--scenario", "lemma2-sweep", "--trials", "3", "--sigma", "2.3e-308", "--format", "json",
            "--deterministic", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["aggregates"] == {"trials": 3, "skipped": 3} and payload["records"] == []


# --- JSON writer ---------------------------------------------------------------


class _OddRow(NamedTuple):
    name: str
    value: float
    flag: bool
    note: object


_ODD_ROWS = [
    _OddRow("nan", float("nan"), True, None),
    _OddRow("+inf", float("inf"), False, 1),
    _OddRow("-inf", float("-inf"), True, "plain"),
    _OddRow("-0.0", -0.0, False, 'quote " backslash \\ newline \n tab \t'),
    _OddRow("non-ascii", 1e-300, True, "σ² → ∞, naïve, 中文, \U0001f600"),
    _OddRow("tiny", 5e-324, False, 12345678901234567890),
    # The separator between rows of a list, raw and escaped.
    _OddRow("},\n      {", 1.0, True, "},\\n      {"),
]


@pytest.mark.parametrize("records", [[], _ODD_ROWS], ids=["no-records", "odd-values"])
@pytest.mark.parametrize("aggregates", [
    {"trials": 3, "skipped": 1},
    [{"n1": 1, "avg": float("nan"), "frac": -0.0}, {"n1": 2, "avg": float("inf"), "frac": 0.5}],
    [],
    {},
], ids=["dict-aggregates", "list-aggregates", "no-aggregates", "empty-aggregates"])
@pytest.mark.parametrize("deterministic", [True, False])
def test_json_writer_matches_the_pure_python_encoder(monkeypatch, records, aggregates, deterministic):
    spec = ScenarioSpec(scenario="single", config=small_config(), fmt="json", deterministic=deterministic)
    payloads = []
    writer = sim_cli._json_text
    monkeypatch.setattr(sim_cli, "_json_text", lambda payload: payloads.append(payload) or writer(payload))
    text = sim_cli.render_json(spec, records, aggregates)
    (payload,) = payloads
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert ("generated" in payload) is not deterministic
    if records:
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "\\u03c3" in text

