"""Self-tests of the benchmark: its checks catch corrupted output, its
tracer attributes time exactly and leaves the program untouched, and it
refuses to run without the program's sources.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import LAYERS, ROOT_KEY, Tracer
from workloads import AsymMc, Certify, RelayRegimes


@pytest.fixture(scope="module")
def program():
    return run.import_twrelay()


def _shift_power(sol, delta=1e-6):
    powers = np.array(sol.powers1, dtype=float)
    powers[0] += delta
    return dataclasses.replace(sol, powers1=powers)


def test_relay_regimes_flags_shifted_power_and_swapped_path(program, tmp_path):
    tw, modules = program
    wl = RelayRegimes(tw, modules, 0, tmp_path)
    wl.prepare_checks(tw)
    for i in range(len(wl)):
        sol = wl.run(i)
        assert wl.failures(i, sol) == 0
        if len(sol.step_trace) == 3:  # path 1-2-6: swap it for the longest one
            break
    assert wl.failures(i, _shift_power(sol)) == 1
    swapped = dataclasses.replace(sol, step_trace=(1, 2, 3, 4, 5, 6, 7))
    assert wl.failures(i, swapped) == 1
    assert wl.failures(i, ValueError("raised")) == 1


def test_certify_flags_shifted_power(program, tmp_path):
    tw, modules = program
    wl = Certify(tw, modules, 0, tmp_path)
    sol, cert = wl.run(0)
    assert wl.failures(0, (sol, cert)) == 0
    assert wl.failures(0, (_shift_power(sol), cert)) == 1
    shifted = dataclasses.replace(sol, consumed_power=sol.consumed_power + 1e-6)
    assert wl.failures(0, (shifted, cert)) == 1


def test_asym_mc_flags_changed_aggregate_digit(program, tmp_path):
    tw, modules = program
    wl = AsymMc(tw, modules, 0, tmp_path)
    wl.prepare_checks(tw)
    assert wl.failures(0, wl.run(0)) == 0
    payload = json.loads(wl.out.read_text())
    agg = payload["aggregates"][0]
    agg["avg_sum_rate_tw"] = float(f"{agg['avg_sum_rate_tw'] * (1 + 1e-11):.12g}")
    wl.out.write_text(json.dumps(payload))
    assert wl.failures(0, 0) == wl.units_per_instance
    assert wl.failures(0, 3) == wl.units_per_instance
    wl.close()


def _traced(wl, modules):
    tracer = Tracer()
    tracer.install("twrelay", modules)
    try:
        for i in range(40):
            tracer.instance(wl.run, i)
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_self_times_partition_roots_and_counts_repeat(program, tmp_path):
    tw, modules = program
    originals = {(layer, name): obj for layer, mod in modules.items()
                 for name, obj in vars(mod).items()}
    wl = RelayRegimes(tw, modules, 1, tmp_path)
    first = _traced(wl, modules)
    second = _traced(wl, modules)
    assert all(vars(modules[layer])[name] is obj for (layer, name), obj in originals.items())

    own = first.self_times_ns()
    roots = [s for s in first.spans if s[3] == ROOT_KEY]
    assert len(roots) == 40 and all(s[1] == 0 for s in roots)
    assert sum(own.values()) == sum(s[6] - s[5] for s in roots)
    assert all(v >= 0 for v in own.values())
    sites = {s[4] for s in first.spans}
    assert {"relay_opt.inverse_waterfill", "waterfill.rate_of_level"} <= sites
    assert {s[3].split(".")[0] for s in first.spans} <= set(LAYERS) | {"bench"}
    assert first.counts == second.counts
    assert [s[3:5] for s in first.spans] == [s[3:5] for s in second.spans]


def test_refuses_to_run_without_program_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_repeated_setup_restores_the_kept_modules():
    _, modules, _, _ = run.setup(AsymMc, 0)
    assert min(run.setup_again(AsymMc, 0)) > 0
    assert all(sys.modules[f"twrelay.{layer}"] is mod for layer, mod in modules.items())


def test_samples_are_divided_by_their_window_slowdown():
    samples = run.Samples()
    samples.times = [1.0, 2.0, 3.0]
    samples.windows = [0, 0, 1]
    samples.probes = {0: [run.PROBE_REF_S] * 3, 1: [run.PROBE_REF_S, 2 * run.PROBE_REF_S,
                                                    3 * run.PROBE_REF_S]}
    assert samples.slowdowns() == {0: 1.0, 1: 2.0}
    assert samples.normalized().tolist() == [1.0, 2.0, 1.5]


def test_instance_latencies_take_the_median_of_each_instances_repeats():
    times = np.array([1.0, 10.0, 3.0, 30.0, 2.0])  # instances 0, 1, 0, 1, 0
    assert run.instance_latencies(times, 2).tolist() == [2.0, 20.0]
    assert run.instance_latencies(times[:1], 2).tolist() == [1.0]
