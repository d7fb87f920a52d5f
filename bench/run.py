"""twrelay benchmark: one workload, one process, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload {asym-mc,relay-regimes,certify} \
        --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed through twrelay's public API
(``src/`` is imported from source), then solves instances one after another
for S seconds with tracing off, checking every output. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` additionally runs one pass of the
instances with spans around every public layer function and reports the
per-layer metrics instead. Reported times are corrected for the speed of
the shared host (see PROBE_REF_S). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Provenance, the full
result and (traced runs) the spans are written under ``.bench_out/``.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import os  # noqa: E402

# Instances are 6x6 or smaller; one BLAS thread keeps timings steady on a
# shared machine and keeps the process to a single running thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS, ROOT_KEY, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up (import + input building) runs SETUP_REPEATS times: once before the
# timed phase and once before each further part of it, so that the median
# samples the machine across the whole run, not one burst of a neighbour's
# load. Only the first set-up's inputs are used.
SETUP_REPEATS = 7
# Fraction of a pass run untimed before timing starts.
WARMUP_FRACTION = 0.05

# Host speed. The cores of a shared machine slow down by up to ~2x while
# another tenant loads them, in bursts lasting from tens of milliseconds to
# minutes, so raw wall times follow the neighbours. Between instances the
# run times a fixed probe, which never calls twrelay: a Python loop and a
# few numpy calls on 6-element arrays, the same mix of interpreter and
# small-array work as the program, so contention slows both about alike
# (bench/README.md, "Host speed", gives the measured match). Each
# timed sample is divided by the probe's median time in the same WINDOW_S
# window and multiplied by PROBE_REF_S, the probe's time on an uncontended
# core: the result is the sample's time at uncontended speed.
PROBE_GAINS = np.linspace(0.1, 1.0, 6)
PROBE_REF_S = 8.0e-6
# After each instance the probe runs once untimed (to re-warm after the
# instance's memory traffic), then timed until probes have taken this share
# of the timed instance time.
PROBE_SHARE = 0.02
WINDOW_S = 0.25
# During a set-up, which is one uninterrupted call, a timer signal runs the
# probe every SETUP_PROBE_S seconds instead.
SETUP_PROBE_S = 0.004
SETUP_PROBE_SPAN = 5

STEP_PATHS = (
    "1-2-6", "1-2-3-4-6", "1-2-3-4-5-6", "1-2-3-5-6",
    "1-2-3-4-6-7", "1-2-3-4-5-6-7", "1-2-3-5-6-7",
)

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_us_p50": "us",
    "latency_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


def import_twrelay():
    """(Re-)import twrelay from ``src/`` and return the package and its layer modules."""
    if not (SRC / "twrelay" / "__init__.py").is_file():
        raise BenchError(f"twrelay sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "twrelay" or m.startswith("twrelay.")]:
        del sys.modules[name]
    tw = importlib.import_module("twrelay")
    if not Path(tw.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported twrelay from {tw.__file__}, not from {SRC}")
    return tw, {layer: importlib.import_module(f"twrelay.{layer}") for layer in LAYERS}


def probe() -> float:
    """Time one run of the probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50):
        acc += i * i
    for _ in range(2):
        np.log(np.maximum(PROBE_GAINS * 1.5, 1.0)).sum()
    return time.perf_counter() - t0


class ProbeTimer:
    """Runs the probe from a timer signal while the block runs.

    `probing_s` is the time the signal handler took, which the block's own
    timing includes.
    """

    def __enter__(self):
        self.probes: list[float] = []
        self.probing_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SETUP_PROBE_S, SETUP_PROBE_S)
        return self

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.probes.append(probe())
        self.probing_s += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup(workload_cls, seed: int):
    """Import the program and build the inputs; returns them and the time
    taken, raw and at uncontended speed (see PROBE_REF_S)."""
    with ProbeTimer() as timer:
        t0 = time.perf_counter()
        tw, modules = import_twrelay()
        wl = workload_cls(tw, modules, seed, OUT_DIR)
        raw = time.perf_counter() - t0 - timer.probing_s
    if not timer.probes:  # a set-up shorter than SETUP_PROBE_S
        probe()
        timer.probes.append(probe())
    # The probes are evenly spaced in time, so the mean of the inverse
    # slowdown is the set-up's mean speed; each probe's slowdown is the
    # median over it and its SETUP_PROBE_SPAN neighbours on either side.
    slow = np.array(timer.probes) / PROBE_REF_S
    span = SETUP_PROBE_SPAN
    local = [np.median(slow[max(0, i - span):i + span + 1]) for i in range(slow.size)]
    return tw, modules, wl, (raw, raw * float(np.mean(1.0 / np.array(local))))


def setup_again(workload_cls, seed: int) -> tuple[float, float]:
    """Time one more set-up, then restore the modules the kept inputs belong to."""
    kept = {k: m for k, m in sys.modules.items() if k == "twrelay" or k.startswith("twrelay.")}
    elapsed = setup(workload_cls, seed)[3]
    sys.modules.update(kept)
    return elapsed


def run_instance(wl, i: int, tracer: Tracer | None = None):
    """Time one instance; exceptions from the program count as failed output."""
    t0 = time.perf_counter()
    try:
        out = tracer.instance(wl.run, i) if tracer else wl.run(i)
    except Exception as exc:  # noqa: BLE001 - a raising solve is a failed operation
        out = exc
    elapsed = time.perf_counter() - t0
    return elapsed, wl.failures(i, out)


class Samples:
    """Timed instances of a closed loop and the probes run between them."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.times: list[float] = []
        self.windows: list[int] = []
        self.probes: dict[int, list[float]] = defaultdict(list)
        self.failed = 0
        self._timed = self._probed = 0.0

    def run(self, wl, i: int, tracer: Tracer | None = None) -> None:
        window = int((time.perf_counter() - self.origin) / WINDOW_S)
        elapsed, bad = run_instance(wl, i, tracer)
        self.times.append(elapsed)
        self.windows.append(window)
        self.failed += bad
        self._timed += elapsed
        probe()
        while True:
            p = probe()
            self._probed += p
            self.probes[window].append(p)
            if self._probed >= PROBE_SHARE * self._timed:
                break

    def slowdowns(self) -> dict[int, float]:
        """Per window: the probe's median time over its uncontended time."""
        return {w: statistics.median(ps) / PROBE_REF_S for w, ps in self.probes.items()}

    def normalized(self) -> np.ndarray:
        """Each sample's time at uncontended speed."""
        slow = self.slowdowns()
        return np.array(self.times) / np.array([slow[w] for w in self.windows])


def timed_phase(wl, seconds: float, between_parts):
    """Closed loop over the pass for `seconds`, in SETUP_REPEATS equal parts.

    `between_parts()` runs before every part but the first; its results are
    returned with the samples.
    """
    n = len(wl)
    samples = Samples()
    extra = []
    for part in range(SETUP_REPEATS):
        if part:
            extra.append(between_parts())
        deadline = time.perf_counter() + seconds / SETUP_REPEATS
        while True:
            samples.run(wl, len(samples.times) % n)
            if time.perf_counter() >= deadline:
                break
    return samples, extra


def instance_latencies(times: np.ndarray, n: int) -> np.ndarray:
    """Each instance's median over its timed repeats (the loop runs instance
    k at samples k, k + n, k + 2n, ...)."""
    return np.array([np.median(times[k::n]) for k in range(min(n, times.size))])


def end_to_end(wl, samples: Samples, setups) -> dict:
    """Metrics at uncontended speed. Throughput counts every timed sample;
    latency percentiles are over the pass's instances, per unit (per cell on
    asym-mc)."""
    units = wl.units_per_instance
    times = samples.normalized()
    latencies = instance_latencies(times, len(wl)) / units * 1e6
    return {
        "throughput_per_s": times.size * units / times.sum(),
        "latency_us_p50": float(np.percentile(latencies, 50)),
        "latency_us_p99": float(np.percentile(latencies, 99)),
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(wl, modules):
    tracer = Tracer()
    tracer.install("twrelay", modules)
    samples = Samples()
    try:
        for i in range(len(wl)):
            samples.run(wl, i, tracer)
    finally:
        tracer.uninstall()
    return tracer, samples


def per_layer(tracer: Tracer, wl, untraced: Samples, traced: Samples) -> tuple[dict, dict]:
    """The per-layer metrics, and the counts fixed by the seed's instances.

    The fixed counts (step paths, study records, spans, solves) change only
    when the program's output or call structure changes, so they are
    reported for exact comparison between runs, not as metrics.
    """
    self_ns = tracer.self_times_ns()
    key_of = {}
    parent_of = {}
    calls: Counter = Counter()
    self_by_key: dict = defaultdict(int)
    self_list: dict = defaultdict(list)
    for sid, parent, _, key, _, _, _, _ in tracer.spans:
        key_of[sid] = key
        parent_of[sid] = parent
        calls[key] += 1
        self_by_key[key] += self_ns[sid]
        self_list[key].append(self_ns[sid])

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    def self_us_p50(key):
        return float(np.median(self_list[key])) / 1e3 if self_list[key] else 0.0

    # Sweeps: each sweep of max_ma_strategy calls rate_ma once, and the
    # final strategy_from_covariances calls it once more.
    strategies = calls["ma_phase.max_ma_strategy"]
    rate_ma_in_strategy = 0
    for sid, key in key_of.items():
        if key != "ma_phase.rate_ma":
            continue
        up = parent_of[sid]
        while up and key_of[up] != "ma_phase.max_ma_strategy":
            up = parent_of[up]
        rate_ma_in_strategy += bool(up)

    solves = len(traced.times) * wl.units_per_instance
    layers_ns = sum(layer_sum(self_by_key, layer) for layer in LAYERS)
    traced_wall = sum(traced.times)
    untraced_tput = len(untraced.times) / untraced.normalized().sum()
    traced_tput = len(traced.times) / traced.normalized().sum()
    c = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_sum(self_by_key, layer) / 1e9, "s")
    m["bench.self_s"] = (self_by_key[ROOT_KEY] / 1e9, "s")
    m["waterfill.calls"] = (layer_sum(calls, "waterfill"), "count")
    m["waterfill.calls_per_solve"] = (layer_sum(calls, "waterfill") / solves, "calls/solve")
    m["waterfill.elements"] = (c["waterfill.elements"], "count")
    m["ma_phase.max_ma_strategy.calls"] = (strategies, "count")
    m["ma_phase.max_ma_strategy.self_s"] = (self_by_key["ma_phase.max_ma_strategy"] / 1e9, "s")
    m["ma_phase.sweeps_per_strategy"] = (
        (rate_ma_in_strategy - strategies) / strategies if strategies else 0.0, "sweeps/strategy"
    )
    m["ma_phase.no_convergence"] = (
        c["raised.ma_phase.max_ma_strategy.NoConvergenceError"], "count"
    )
    m["relay_opt.optimize.calls"] = (calls["relay_opt.optimize"], "count")
    for key in ("relay_opt.optimize", "oracle.grid_certify"):
        m[f"{key}.self_s"] = (self_by_key[key] / 1e9, "s")
        m[f"{key}.self_us_p50"] = (self_us_p50(key), "us")
    for fn in ("relative_levels", "thresholds"):
        m[f"relay_opt.{fn}.calls_per_solve"] = (calls[f"relay_opt.{fn}"] / solves, "calls/solve")
    for fn in ("generate_channels", "decompose"):
        m[f"channel.{fn}.self_s"] = (self_by_key[f"channel.{fn}"] / 1e9, "s")
    m["channel.rank_zero"] = (c["raised.channel.decompose.RankZeroError"], "count")
    for fn in ("run_asymmetry_study", "render_json"):
        m[f"sim_cli.{fn}.self_s"] = (self_by_key[f"sim_cli.{fn}"] / 1e9, "s")
    m["trace.overhead_frac"] = (1.0 - traced_tput / untraced_tput, "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.coverage_frac"] = (layers_ns / 1e9 / traced_wall, "ratio")
    fixed = {f"relay_opt.path.{path}": c[f"relay_opt.path.{path}"] for path in STEP_PATHS}
    fixed["oracle.grid_certify.calls"] = calls["oracle.grid_certify"]
    fixed["sim_cli.records"] = c["sim_cli.records"]
    fixed["trace.spans"] = len(tracer.spans)
    fixed["trace.solves"] = solves
    return m, fixed


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host(wl, samples: Samples, setups) -> dict:
    """How much other tenants slowed this run, and its figures before the
    correction for it (see PROBE_REF_S)."""
    times = np.asarray(samples.times)
    units = wl.units_per_instance
    slow = list(samples.slowdowns().values())
    return {
        "timed_samples": times.size,
        "repeats_per_instance": times.size / len(wl),
        "host_slowdown_p10": float(np.percentile(slow, 10)),
        "host_slowdown_p50": float(np.percentile(slow, 50)),
        "host_slowdown_p90": float(np.percentile(slow, 90)),
        "raw_throughput_per_s": times.size * units / times.sum(),
        "raw_latency_us_p50": float(np.percentile(times, 50)) / units * 1e6,
        "raw_latency_us_p99": float(np.percentile(times, 99)) / units * 1e6,
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
    }


def provenance(args, setups, warmup_s, first_instance_s, load_start, wl, samples) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "twrelay").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "time_utc": datetime.now(timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "instances_per_pass": len(wl),
        "units_per_instance": wl.units_per_instance,
        "setup_dropped_draws": wl.dropped,
        "setup_runs_s": [raw for raw, _ in setups],
        "setup_runs_uncontended_s": [norm for _, norm in setups],
        "warmup_s": warmup_s,
        "script_start_to_first_instance_s": first_instance_s,
        **host(wl, samples, setups),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    workload_cls = WORKLOADS[args.workload]
    try:
        tw, modules, wl, first_setup = setup(workload_cls, args.seed)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    fixed = None
    try:
        wl.prepare_checks(tw)
        t0 = time.perf_counter()
        for i in range(max(1, int(len(wl) * WARMUP_FRACTION))):
            wl.run(i)
        warmup_s = time.perf_counter() - t0
        first_instance_s = time.perf_counter() - SCRIPT_START
        samples, more_setups = timed_phase(
            wl, args.seconds, lambda: setup_again(workload_cls, args.seed))
        setups = [first_setup, *more_setups]
        attempted = len(samples.times) * wl.units_per_instance
        failed = samples.failed
        if args.trace:
            tracer, traced = traced_pass(wl, modules)
            attempted += len(traced.times) * wl.units_per_instance
            failed += traced.failed
            metrics, fixed = per_layer(tracer, wl, samples, traced)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(wl, samples, setups).items()}
    finally:
        wl.close()

    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    prov = provenance(args, setups, warmup_s, first_instance_s, load_start, wl, samples)
    if fixed is not None:
        prov["fixed_counts"] = fixed
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, "provenance": prov}, indent=1))
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}.spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_fraction':40s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for name, value in (fixed or {}).items():
        print(f"{name:40s} {value:>16d} count (fixed by the seed's instances)")
    print("provenance " + json.dumps(prov))
    print(json.dumps(record))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
