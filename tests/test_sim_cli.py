"""Scenario runners and CLI: schemas, determinism, exit codes."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay.sim_cli import (
    LEMMA2_LEVEL_POINTS,
    ScenarioSpec,
    main,
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
    by_cell = {}
    for rec in short:
        by_cell.setdefault((rec.n1, rec.p1_max), []).append(rec.sum_rate_tw)
    for agg in aggs:
        key = (agg["n1"], agg["p1_max"])
        assert_allclose(agg["avg_sum_rate_tw"], np.mean(by_cell[key]), rtol=1e-12)


# --- single --------------------------------------------------------------------


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
    assert main(["--scenario", "single", "--p1", "nan"]) == 2
    assert main(["--scenario", "single", "--pr", "nan", "--deterministic"]) == 2
    assert main(["--scenario", "single", "--pr", "inf"]) == 2
    assert main(["--scenario", "single", "--instance", "/no/such/file.json"]) == 2
    sweep = ["--sweep-start", "nan", "--sweep-stop", "nan", "--deterministic"]
    assert main(["--scenario", "lemma2-sweep", *sweep]) == 2
    assert main(["--scenario", "prmax-sweep", "--sweep-start", "nan"]) == 2
    assert main(["--scenario", "single", "--certify", "--resolution", "nan"]) == 2
    assert main(["--scenario", "single", "--certify", "--resolution", "inf"]) == 2
    for name, change in (
        ("inf_gain", {"alpha1": [float("inf")]}),
        ("nan_gain", {"alpha1": [float("nan"), 1.0]}),
        ("nan_budget", {"pr_max": float("nan")}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**ASYM_INSTANCE, **change}))
        assert main(["--scenario", "single", "--instance", str(path), "--deterministic"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["--scenario", "not-a-scenario"])
    assert err.value.code == 2


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
