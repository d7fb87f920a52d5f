"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workloads asym-mc relay-regimes certify \
        --seeds 0-9 [--out bench/results/NAME.json]

Runs ``bench/run.py`` once per (workload, seed), one after another, for the
run length in ``BENCHMARK.json`` with tracing off, and
reports for each metric the median and quartiles (``statistics.quantiles``,
n=4) of its per-run values, and the quartile spread as a share of the
median next to the bound in ``BENCHMARK.json``. A spread above the bound
means two sets of runs of the same code could disagree by more than the
bound allows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    prov = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    return {**json.loads(lines[-1]), "provenance": prov}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("nan"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="0-9", help="'A-B' or comma list")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, seconds)
            runs.append(res)
            load = res["provenance"]["loadavg_end"][0]
            print(f"{workload} seed {seed}: failed {res['failed']}/{res['attempted']}, "
                  f"load {load:.2f}", file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        report["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "provenance": [r["provenance"] for r in runs],
        }
        print(f"\n{workload} ({len(runs)} runs, {seconds} s each)")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"bound {bound:.2f} " + ("OK" if s["spread"] <= bound / 3 else
                                         "WITHIN" if s["spread"] <= bound else "OVER"))
            print(f"  {name:38s} median {s['median']:>12.6g} {s['unit']:12s} "
                  f"IQR/median {s['spread']:.4f} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
