"""Seeded Monte-Carlo scenario runner and command-line front end.

Four scenarios:

* ``lemma2-sweep``    broadcast rate sum versus the direction-1 water level
                      at fixed total relay power, one curve per relay
                      power-to-noise ratio (dB); demonstrates that the sum
                      peaks at the common pooled level and falls off
                      monotonically on both sides.
* ``prmax-sweep``     one channel realization, relay budget swept; emits the
                      minimum-power solution next to the full-power baseline
                      so the saturation of consumed power is visible.
* ``asymmetry-study`` averages sum rate, consumed relay power and the
                      fraction of efficient allocations over a grid of
                      antenna and power splits with fixed totals.
* ``single``          one instance end to end, optionally grid-certified and
                      optionally loaded from an explicit gains/rates file.

SCENARIOS maps each name to its runner, its record type and its flag
defaults. Runners return one immutable record (a NamedTuple) per row,
whose fields, in order, are the CSV columns and the JSON record keys.
Records are NamedTuples, not frozen dataclasses, because every CLI start
imports them: on CPython 3.11 (2-core x86-64 host) the five record types
cost about 11 ms to create as frozen dataclasses and about 2 ms as
NamedTuples.

Each trial derives its own RNG stream from (seed, trial index), so any
execution order produces identical output. CSV output is byte-stable for a
fixed spec; the only non-deterministic line is a leading timestamp comment,
suppressed by --deterministic. Floats are serialized with 12 significant
digits. Rates are in nats: sum_rate_tw columns carry the 1/2 two-slot
factor, bc_*/r_* columns do not.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

# No ``from __future__ import annotations``: NamedTuple would compile every
# string annotation of the records (about 100) into a ForwardRef at import.

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (
    SubchannelGains,
    SystemConfig,
    decompose,
    generate_channels,
    synthetic_gains,
)
from .errors import ConfigError, NoConvergenceError, RankZeroError
from .ma_phase import max_ma_strategy
from .oracle import grid_certify
from .relay_opt import RelaySolution, SourceRates, optimize, two_way_rate
from .waterfill import forward_level, power_of_level, rate_of_level

__all__ = [
    "ScenarioSpec",
    "run_lemma2_sweep",
    "run_prmax_sweep",
    "run_asymmetry_study",
    "run_single",
    "run_scenario",
    "main",
    "cli_entry",
]

# Points per curve when sweeping the direction-1 level in lemma2-sweep.
LEMMA2_LEVEL_POINTS = 121


class Lemma2Record(NamedTuple):
    """One point of one lemma2-sweep curve."""

    trial: int
    ratio_db: float
    pr_total: float
    inv_lambda0: float
    inv_lambda1: float
    inv_lambda2: float
    bc_sum: float


class PrmaxRecord(NamedTuple):
    """One budget of prmax-sweep: minimum-power solution and full-power baseline."""

    point: int
    n1: int
    n2: int
    nr: int
    p1_max: float
    p2_max: float
    sigma_sq: float
    pr_max: float
    r_ma: float
    r_bar_1r: float
    r_bar_2r: float
    inv_lambda1: float
    inv_lambda2: float
    consumed_power: float
    bc_rate_1: float
    bc_rate_2: float
    bc_sum: float
    sum_rate_tw: float
    step_path: str
    efficient: bool
    source_waste: bool
    baseline_inv_lambda1: float
    baseline_inv_lambda2: float
    baseline_consumed: float
    baseline_bc_1: float
    baseline_bc_2: float
    baseline_bc_sum: float
    baseline_sum_rate_tw: float


class AsymRecord(NamedTuple):
    """One (trial, antenna split, power split) cell of asymmetry-study."""

    trial: int
    n1: int
    n2: int
    p1_max: float
    p2_max: float
    sum_rate_tw: float
    consumed_power: float
    efficient: bool


class SingleRecord(NamedTuple):
    """The row of single: the instance, its source rates and the optimizer's answer."""

    trial: int
    n1: int
    n2: int
    nr: int
    p1_max: float
    p2_max: float
    pr_max: float
    sigma_sq: float
    r_ma: float
    r_bar_1r: float
    r_bar_2r: float
    inv_lambda1: float
    inv_lambda2: float
    consumed_power: float
    bc_rate_1: float
    bc_rate_2: float
    bc_sum: float
    sum_rate_tw: float
    step_path: str
    efficient: bool
    source_waste: bool


# The row of single --certify: the single row followed by the grid oracle's answer.
CertifiedSingleRecord = NamedTuple("CertifiedSingleRecord", [
    *SingleRecord.__annotations__.items(),
    ("oracle_best_rate", float),
    ("oracle_min_power", float),
    ("oracle_argmax_inv_lambda1", float),
    ("oracle_argmax_inv_lambda2", float),
    ("baseline_inv_lambda1", float),
    ("baseline_inv_lambda2", float),
    ("baseline_bc_sum", float),
    ("grid_resolution", float),
])


class Scenario(NamedTuple):
    """Runner (a function of this module, by name), record type and flag defaults."""

    runner: str
    record: type
    defaults: dict


SCENARIOS = {
    "lemma2-sweep": Scenario("run_lemma2_sweep", Lemma2Record, dict(
        n1=6, n2=5, n_r=8, p1_max=3.0, p2_max=3.0, pr_max=3.0,
        sweep_start=4.0, sweep_stop=7.0, sweep_points=4, trials=1)),
    "prmax-sweep": Scenario("run_prmax_sweep", PrmaxRecord, dict(
        n1=6, n2=5, n_r=8, p1_max=3.0, p2_max=3.0, pr_max=3.0,
        sweep_start=0.25, sweep_stop=12.0, sweep_points=50, trials=1)),
    "asymmetry-study": Scenario("run_asymmetry_study", AsymRecord, dict(
        n1=3, n2=3, n_r=6, p1_max=2.5, p2_max=2.5, pr_max=3.0,
        sweep_start=0.0, sweep_stop=0.0, sweep_points=1, trials=100)),
    "single": Scenario("run_single", SingleRecord, dict(
        n1=2, n2=2, n_r=2, p1_max=1.0, p2_max=1.0, pr_max=1.0,
        sweep_start=0.0, sweep_stop=0.0, sweep_points=1, trials=1)),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one scenario run needs; validated on construction."""

    scenario: str
    config: SystemConfig
    trials: int = 1
    sweep_start: float = 0.0
    sweep_stop: float = 1.0
    sweep_points: int = 1
    certify: bool = False
    resolution: float = 1e-3
    out: str | None = None
    fmt: str = "csv"
    deterministic: bool = False
    instance_path: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.sweep_points < 1:
            raise ConfigError("sweep grid must be nonempty")
        if not all(map(math.isfinite, (self.sweep_start, self.sweep_stop, self.resolution))):
            raise ConfigError("sweep bounds and certification resolution must be finite")
        if self.sweep_stop < self.sweep_start:
            raise ConfigError("sweep stop must be >= sweep start")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.resolution <= 0.0:
            raise ConfigError("certification resolution must be positive")


def _solution_values(sol: RelaySolution) -> tuple:
    """Values of the columns inv_lambda1 .. source_waste of prmax-sweep and single."""
    bc1, bc2 = sol.bc_rates
    step_path = "-".join(str(s) for s in sol.step_trace)
    return (
        sol.level1, sol.level2, sol.consumed_power, bc1, bc2, bc1 + bc2,
        sol.sum_rate_tw, step_path, sol.efficient, sol.source_waste,
    )


def run_lemma2_sweep(spec: ScenarioSpec) -> tuple[list[Lemma2Record], dict]:
    """Broadcast rate sum along full-power level splits, per dB ratio."""
    cfg = spec.config
    ratios_db = np.linspace(spec.sweep_start, spec.sweep_stop, spec.sweep_points)
    records: list[Lemma2Record] = []
    skipped = 0
    for trial in range(spec.trials):
        try:
            gains = decompose(generate_channels(cfg, trial), cfg)
        except RankZeroError:
            skipped += 1
            continue
        budgets = 10.0 ** (ratios_db / 10.0) * cfg.sigmar_sq
        # One shared level grid per trial so curves for different ratios can
        # be compared at identical abscissae; infeasible points are skipped.
        lo = 1.0 / gains.alpha1[0]
        hi = forward_level(gains.alpha1, float(np.max(budgets)))
        grid = np.linspace(lo, hi, LEMMA2_LEVEL_POINTS)
        power1 = power_of_level(gains.alpha1, grid)
        for db, pr in zip(ratios_db, budgets):
            inv_lambda0 = forward_level(gains.pooled, pr)
            feasible = power1 <= pr + 1e-12
            remainder = np.maximum(pr - power1[feasible], 0.0)
            level2 = forward_level(gains.alpha2, remainder)
            bc_sum = rate_of_level(gains.alpha1, grid[feasible]) + rate_of_level(
                gains.alpha2, level2
            )
            for l1, l2, bc in zip(grid[feasible], level2, bc_sum):
                records.append(Lemma2Record(
                    trial, float(db), pr, inv_lambda0, float(l1), float(l2), float(bc)
                ))
    return records, {"trials": spec.trials, "skipped": skipped}


def run_prmax_sweep(spec: ScenarioSpec) -> tuple[list[PrmaxRecord], dict]:
    """Budget sweep on one realization: min-power solution vs baseline."""
    cfg = spec.config
    channels = generate_channels(cfg, 0)
    gains = decompose(channels, cfg)
    strategy = max_ma_strategy(channels, cfg)
    budgets = np.linspace(spec.sweep_start, spec.sweep_stop, spec.sweep_points)
    records: list[PrmaxRecord] = []
    for point, pr in enumerate(budgets):
        sol = optimize(gains, strategy, float(pr))
        cert = grid_certify(gains, strategy, float(pr), spec.resolution)
        bl_levels, bl_bc = cert.baseline_levels, cert.baseline_bc_rates
        bl_consumed = power_of_level(gains.alpha1, bl_levels[0]) + power_of_level(
            gains.alpha2, bl_levels[1]
        )
        records.append(PrmaxRecord(
            point, cfg.n1, cfg.n2, cfg.n_r, cfg.p1_max, cfg.p2_max, cfg.sigmar_sq, float(pr),
            strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r,
            *_solution_values(sol),
            *bl_levels, bl_consumed, *bl_bc, bl_bc[0] + bl_bc[1],
            two_way_rate(strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r, *bl_bc),
        ))
    return records, {"trials": 1, "skipped": 0}


def run_asymmetry_study(spec: ScenarioSpec) -> tuple[list[AsymRecord], list[dict]]:
    """Average performance over antenna/power splits with fixed totals.

    Antenna splits cover every n1 in 1..n_total-1 with n1+n2 fixed; power
    splits cover five evenly spaced fractions of the fixed power total.
    Channel realizations are reused across power splits within an antenna
    split, so cells differ only in what they must.
    """
    cfg = spec.config
    n_total = cfg.n1 + cfg.n2
    p_total = cfg.p1_max + cfg.p2_max
    if n_total < 2:
        raise ConfigError("asymmetry study needs n1 + n2 >= 2")
    records: list[AsymRecord] = []
    aggregates: list[dict] = []
    for n1 in range(1, n_total):
        base = dataclasses.replace(cfg, n1=n1, n2=n_total - n1)
        cells = {
            float(p1): {"sum_rate": [], "consumed": [], "efficient": [], "skipped": 0}
            for p1 in np.linspace(0.1, 0.9, 5) * p_total
        }
        for trial in range(spec.trials):
            try:
                channels = generate_channels(base, trial)
                gains = decompose(channels, base)
            except RankZeroError:
                for cell in cells.values():
                    cell["skipped"] += 1
                continue
            for p1, cell in cells.items():
                cell_cfg = dataclasses.replace(base, p1_max=p1, p2_max=p_total - p1)
                try:
                    strategy = max_ma_strategy(channels, cell_cfg)
                    sol = optimize(gains, strategy, cell_cfg.pr_max)
                except (NoConvergenceError, RankZeroError):
                    cell["skipped"] += 1
                    continue
                cell["sum_rate"].append(sol.sum_rate_tw)
                cell["consumed"].append(sol.consumed_power)
                cell["efficient"].append(sol.efficient)
                records.append(AsymRecord(
                    trial, n1, n_total - n1, p1, p_total - p1,
                    sol.sum_rate_tw, sol.consumed_power, sol.efficient,
                ))
        for p1, cell in cells.items():
            done = len(cell["sum_rate"])
            aggregates.append({
                "n1": n1,
                "n2": n_total - n1,
                "p1_max": p1,
                "p2_max": p_total - p1,
                "trials": spec.trials,
                "completed": done,
                "skipped": cell["skipped"],
                "avg_sum_rate_tw": float(np.mean(cell["sum_rate"])) if done else float("nan"),
                "avg_consumed_power": float(np.mean(cell["consumed"])) if done else float("nan"),
                "efficient_fraction": float(np.mean(cell["efficient"])) if done else float("nan"),
            })
    return records, aggregates


def _load_instance(path: str, cfg: SystemConfig) -> tuple[SubchannelGains, SourceRates, float]:
    try:
        payload = json.loads(Path(path).read_text())
        gains = synthetic_gains(payload["alpha1"], payload["alpha2"])
        rates = SourceRates(
            r_ma=payload["r_ma"], r_bar_1r=payload["r_bar_1r"], r_bar_2r=payload["r_bar_2r"]
        )
        pr_max = float(payload.get("pr_max", cfg.pr_max))
        if not (math.isfinite(pr_max) and pr_max >= 0.0):
            raise ValueError("pr_max must be finite and nonnegative")
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad instance file {path}: {exc}") from exc
    return gains, rates, pr_max


def run_single(spec: ScenarioSpec) -> tuple[list[SingleRecord], dict]:
    """One instance end to end, with optional grid certification."""
    cfg = spec.config
    if spec.instance_path is not None:
        gains, strategy, pr_max = _load_instance(spec.instance_path, cfg)
        # An explicit instance has no antennas behind it and unit noise.
        n1, n2, nr, sigma_sq = 0, 0, gains.n_r, 1.0
    else:
        channels = generate_channels(cfg, 0)
        gains = decompose(channels, cfg)
        strategy = max_ma_strategy(channels, cfg)
        pr_max = cfg.pr_max
        n1, n2, nr, sigma_sq = cfg.n1, cfg.n2, cfg.n_r, cfg.sigmar_sq
    sol = optimize(gains, strategy, pr_max)
    row = (
        0, n1, n2, nr, cfg.p1_max, cfg.p2_max, pr_max, sigma_sq,
        strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r,
        *_solution_values(sol),
    )
    if not spec.certify:
        return [SingleRecord(*row)], {"trials": 1, "skipped": 0}
    res = grid_certify(gains, strategy, pr_max, spec.resolution)
    record = CertifiedSingleRecord(
        *row, res.best_rate, res.min_power_at_best, *res.argmax_levels, *res.baseline_levels,
        res.baseline_bc_rates[0] + res.baseline_bc_rates[1], res.grid_resolution,
    )
    return [record], {"trials": 1, "skipped": 0}


def run_scenario(spec: ScenarioSpec):
    # The runner is looked up by name at call time, so wrappers installed on
    # this module's functions (profilers, tracers) see every run.
    return globals()[SCENARIOS[spec.scenario].runner](spec)


def _fmt_cell(value) -> str:
    """CSV text of one value: booleans as 0/1, floats at 12 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _json_clean(value):
    """JSON-ready copy with numpy scalars made plain and floats rounded as in CSV."""
    if isinstance(value, dict):
        return {k: _json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_clean(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(_fmt_cell(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def render_csv(spec: ScenarioSpec, records: list) -> str:
    record_type = type(records[0]) if records else SCENARIOS[spec.scenario].record
    lines = []
    if not spec.deterministic:
        lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(record_type._fields))
    for rec in records:
        lines.append(",".join(_fmt_cell(value) for value in rec))
    return "\n".join(lines) + "\n"


def render_json(spec: ScenarioSpec, records: list, aggregates) -> str:
    payload = {
        "config": _json_clean({
            "scenario": spec.scenario,
            **dataclasses.asdict(spec.config),
            "trials": spec.trials,
            "sweep_start": spec.sweep_start,
            "sweep_stop": spec.sweep_stop,
            "sweep_points": spec.sweep_points,
            "certify": spec.certify,
        }),
        "records": _json_clean([rec._asdict() for rec in records]),
        "aggregates": _json_clean(aggregates),
    }
    if not spec.deterministic:
        payload["generated"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit(spec: ScenarioSpec, records: list, aggregates) -> None:
    text = (
        render_csv(spec, records)
        if spec.fmt == "csv"
        else render_json(spec, records, aggregates)
    )
    if spec.out is None:
        sys.stdout.write(text)
    else:
        Path(spec.out).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twrelay",
        description="Two-way relay power allocation scenarios",
    )
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--n1", type=int)
    parser.add_argument("--n2", type=int)
    parser.add_argument("--nr", dest="n_r", metavar="NR", type=int)
    parser.add_argument("--p1", dest="p1_max", metavar="P1", type=float, help="source 1 power budget, W")
    parser.add_argument("--p2", dest="p2_max", metavar="P2", type=float, help="source 2 power budget, W")
    parser.add_argument("--pr", dest="pr_max", metavar="PR", type=float, help="relay power budget, W")
    parser.add_argument("--sigma", type=float, default=1.0, help="noise variance at all nodes, W")
    parser.add_argument("--sweep-start", type=float)
    parser.add_argument("--sweep-stop", type=float)
    parser.add_argument("--sweep-points", type=int)
    parser.add_argument("--certify", action="store_true",
                        help="attach grid-search certification (single scenario)")
    parser.add_argument("--resolution", type=float, default=1e-3,
                        help="certification grid resolution, W")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress the timestamp line for byte-stable output")
    parser.add_argument("--instance", dest="instance_path", metavar="INSTANCE",
                        help="JSON gains/rates file for the single scenario")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; omitted flags take the scenario's defaults."""
    parser = build_parser()
    scenario = parser.parse_args(argv).scenario
    parser.set_defaults(**SCENARIOS[scenario].defaults)
    return parser.parse_args(argv)


def spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """Spec from parsed flags, named as spec and config fields (--sigma sets all three)."""
    flags = dict(vars(args))
    sigma = flags.pop("sigma")
    config = {f.name: flags.pop(f.name) for f in dataclasses.fields(SystemConfig) if f.name in flags}
    try:
        config = SystemConfig(**config, sigma1_sq=sigma, sigma2_sq=sigma, sigmar_sq=sigma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ScenarioSpec(config=config, **flags)


def main(argv=None) -> int:
    try:
        spec = spec_from_args(parse_args(argv))
        records, aggregates = run_scenario(spec)
        emit(spec, records, aggregates)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
