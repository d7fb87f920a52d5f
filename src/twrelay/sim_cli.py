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
whose fields, in order, are the CSV columns and the JSON record keys: the
record type is the one schema of both outputs, and both writers render
the records column by column.
Records are NamedTuples, not frozen dataclasses, because every CLI start
imports them: on CPython 3.11 (2-core x86-64 host) the five record types
cost about 11 ms to create as frozen dataclasses and about 2 ms as
NamedTuples.

Each trial derives its own RNG stream from (seed, trial index), so any
execution order produces identical output; the asymmetry study draws each
trial's stream once for all its antenna splits (channel.draw_normals) and
decomposes and solves them as stacks and columns. CSV output is byte-stable for a
fixed spec; the only non-deterministic line is a leading timestamp comment,
suppressed by --deterministic. Floats are serialized with 12 significant
digits. Rates are in nats: sum_rate_tw columns carry the 1/2 two-slot
factor, bc_*/r_* columns do not.

Exit codes: 0 success, 2 configuration error (a flag, an instance file or
a budget derived from flags that breaks an input rule, an instance file
whose rates are out of order, or a flag the scenario never reads), 3
runtime failure. Flags and instance files convert their numbers through
waterfill._checked, the outside-number rule's one owner; ScenarioSpec and
_load_instance raise ConfigError.
"""

# No ``from __future__ import annotations``: NamedTuple would compile every
# string annotation of the class-form records into a ForwardRef at import.

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (
    SubchannelGains,
    SystemConfig,
    cut_channels,
    decompose,
    decompose_groups,
    decompose_many,
    draw_normals,
    generate_channels,
    synthetic_gains,
)
from .errors import ConfigError, InvalidStrategyError
from .ma_phase import SourceRates, max_ma_strategy, max_ma_strategy_groups
from .oracle import grid_certify
from .relay_opt import RelaySolution, optimize, optimize_many, two_way_rate
from .waterfill import _POSITIVE, _budget_bound, _checked, forward_level, power_of_level, rate_of_level

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
# The asymmetry study decomposes its (antenna split, trial) rows a fifth of
# this many at a time and runs each such chunk's cells through the MA phase
# and then the relay optimizer in one call apiece, so a long study keeps
# memory bounded.
STUDY_BATCH_CELLS = 4096


class Lemma2Record(NamedTuple):
    """One point of one lemma2-sweep curve."""

    trial: int
    ratio_db: float
    pr_total: float
    inv_lambda0: float
    inv_lambda1: float
    inv_lambda2: float
    bc_sum: float


# The columns of prmax-sweep and single from the source rates and the
# optimizer's answer, in order; _solution_values fills them.
_SOLUTION_COLUMNS = [
    ("r_ma", float), ("r_bar_1r", float), ("r_bar_2r", float), ("inv_lambda1", float),
    ("inv_lambda2", float), ("consumed_power", float), ("bc_rate_1", float), ("bc_rate_2", float),
    ("bc_sum", float), ("sum_rate_tw", float), ("step_path", str), ("efficient", bool), ("source_waste", bool),
]

# One budget of prmax-sweep: minimum-power solution and full-power baseline.
PrmaxRecord = NamedTuple("PrmaxRecord", [
    ("point", int), ("n1", int), ("n2", int), ("nr", int), ("p1_max", float), ("p2_max", float),
    ("sigma_sq", float), ("pr_max", float), *_SOLUTION_COLUMNS,
    ("baseline_inv_lambda1", float), ("baseline_inv_lambda2", float), ("baseline_consumed", float),
    ("baseline_bc_1", float), ("baseline_bc_2", float), ("baseline_bc_sum", float),
    ("baseline_sum_rate_tw", float),
])


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


# The row of single: the instance, its source rates and the optimizer's answer.
SingleRecord = NamedTuple("SingleRecord", [
    ("trial", int), ("n1", int), ("n2", int), ("nr", int), ("p1_max", float), ("p2_max", float),
    ("pr_max", float), ("sigma_sq", float), *_SOLUTION_COLUMNS,
])

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
        if self.instance_path is not None and self.scenario != "single":
            raise ConfigError("an instance file (--instance) is read only by the single scenario")
        if self.certify and self.scenario not in ("single", "prmax-sweep"):  # prmax-sweep always certifies
            raise ConfigError("certification (--certify) is read only by single and prmax-sweep")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.sweep_points < 1:
            raise ConfigError("sweep grid must be nonempty")
        _checked((self.sweep_start, self.sweep_stop), "sweep bounds", None, ConfigError)
        _checked(self.resolution, "certification resolution", _POSITIVE, ConfigError)
        if self.sweep_stop < self.sweep_start:
            raise ConfigError("sweep stop must be >= sweep start")
        if self.scenario == "prmax-sweep" and self.sweep_start < 0.0:  # lemma2-sweep's is in dB
            raise ConfigError("relay budget sweep must be nonnegative")
        # The budgets a scenario derives from finite flags can still overflow.
        if self.scenario == "asymmetry-study":
            _checked(self.config.p1_max + self.config.p2_max, "source power total p1 + p2", error=ConfigError)
        if self.scenario == "lemma2-sweep":
            with np.errstate(over="ignore"):  # as run_lemma2_sweep computes it; inf on overflow
                top = np.float64(10.0) ** (self.sweep_stop / 10.0) * self.config.sigmar_sq
            _checked(top, "relay budget 10^(sweep stop / 10) * sigma", error=ConfigError)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")


def _solution_values(strategy: SourceRates, sol: RelaySolution) -> tuple:
    """Values of the _SOLUTION_COLUMNS of prmax-sweep and single."""
    bc1, bc2 = sol.bc_rates
    step_path = "-".join(str(s) for s in sol.step_trace)
    return (
        strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r, sol.level1, sol.level2, sol.consumed_power,
        bc1, bc2, bc1 + bc2, sol.sum_rate_tw, step_path, sol.efficient, sol.source_waste,
    )


def run_lemma2_sweep(spec: ScenarioSpec) -> tuple[list[Lemma2Record], dict]:
    """Broadcast rate sum along full-power level splits, per dB ratio; a trial decompose_many drops is skipped."""
    cfg = spec.config
    ratios_db = np.linspace(spec.sweep_start, spec.sweep_stop, spec.sweep_points)
    budgets = 10.0 ** (ratios_db / 10.0) * cfg.sigmar_sq
    channels = cut_channels(draw_normals(cfg, range(spec.trials)), cfg.n_r, cfg.n1)
    records: list[Lemma2Record] = []
    skipped = 0
    for trial, gains in enumerate(decompose_many(channels.hr1, channels.hr2, cfg.sigma1_sq, cfg.sigma2_sq)):
        if gains is None:
            skipped += 1
            continue
        # One shared level grid per trial so curves for different ratios can
        # be compared at identical abscissae; infeasible points are skipped.
        lo = 1.0 / gains.alpha1[0]
        hi = forward_level(gains.alpha1, float(np.max(budgets)))
        grid = np.linspace(lo, hi, LEMMA2_LEVEL_POINTS)
        power1 = power_of_level(gains.alpha1, grid)
        for db, pr in zip(ratios_db, budgets):
            inv_lambda0 = forward_level(gains.pooled, pr)
            feasible = power1 <= _budget_bound(pr)
            remainder = np.maximum(pr - power1[feasible], 0.0)
            level2 = forward_level(gains.alpha2, remainder)
            bc_sum = rate_of_level(gains.alpha1, grid[feasible]) + rate_of_level(gains.alpha2, level2)
            for l1, l2, bc in zip(grid[feasible], level2, bc_sum):
                records.append(Lemma2Record(trial, float(db), pr, inv_lambda0, float(l1), float(l2), float(bc)))
    return records, {"trials": spec.trials, "skipped": skipped}


def _certified(gains: SubchannelGains, strategy: SourceRates, pr_max: float, resolution: float):
    """grid_certify; a grid its rules refuse (the grid-size rule: too fine a resolution) is a config error."""
    try:
        return grid_certify(gains, strategy, pr_max, resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_prmax_sweep(spec: ScenarioSpec) -> tuple[list[PrmaxRecord], dict]:
    """Budget sweep on one realization: min-power solution vs baseline."""
    cfg = spec.config
    channels = generate_channels(cfg, 0)
    gains = decompose(channels, cfg)
    strategy = max_ma_strategy(channels, cfg)
    budgets = np.linspace(spec.sweep_start, spec.sweep_stop, spec.sweep_points)
    solutions = optimize_many([gains] * budgets.size, [strategy] * budgets.size, budgets)
    records: list[PrmaxRecord] = []
    for point, (pr, sol) in enumerate(zip(budgets, solutions)):
        cert = _certified(gains, strategy, float(pr), spec.resolution)
        bl_levels, bl_bc = cert.baseline_levels, cert.baseline_bc_rates
        bl_consumed = power_of_level(gains.alpha1, bl_levels[0]) + power_of_level(gains.alpha2, bl_levels[1])
        records.append(PrmaxRecord(
            point, cfg.n1, cfg.n2, cfg.n_r, cfg.p1_max, cfg.p2_max, cfg.sigmar_sq, float(pr),
            *_solution_values(strategy, sol),
            *bl_levels, bl_consumed, *bl_bc, bl_bc[0] + bl_bc[1],
            two_way_rate(strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r, *bl_bc),
        ))
    return records, {"trials": 1, "skipped": 0}


def run_asymmetry_study(spec: ScenarioSpec) -> tuple[list[AsymRecord], list[dict]]:
    """Average performance over antenna/power splits with fixed totals.

    Antenna splits cover every n1 in 1..n_total-1 with n1+n2 fixed; power
    splits cover five evenly spaced fractions of the fixed power total.
    Channel realizations are reused across power splits within an antenna
    split, so cells differ only in what they must. A trial whose downlink
    is rank zero or whose gains overflow or underflow counts as skipped in
    every cell of its antenna split, and a cell whose MA phase finds no
    strategy (no convergence, or a numerically singular or inaccurate
    instance) in its own.
    The front end runs on stacks: one draw_normals row per trial serves
    every antenna split, and the (antenna split, trial) rows are cut and
    decomposed in record order, a chunk of at most STUDY_BATCH_CELLS / 5
    rows at a time, with one decompose_groups call per chunk (one group
    per antenna split in it); its GainColumns drop the rows decompose
    would raise on. Each chunk's drawn cells, in record order (n1, trial,
    power split), are one pass: one max_ma_strategy_groups call, with one
    group per antenna split in the chunk, its uplinks each trial's rows
    repeated per power split, then one optimize_many call on the gain
    columns of the cells whose MA rates are not NaN (the engine's drop
    signal). Both engines give a row the same bits in any batch,
    so no record depends on the chunk size. The solved cells stay columns in
    record order; each cell's aggregate is np.add.reduce over its records
    in trial order, divided by their count: the bits of np.mean.
    """
    cfg = spec.config
    n_total, p_total = cfg.n1 + cfg.n2, cfg.p1_max + cfg.p2_max
    p1_splits = np.linspace(0.1, 0.9, 5) * p_total
    n_p, n_trials = len(p1_splits), spec.trials
    # Per solved cell in record order: n1, trial, power split, and the relay's
    # sum rate, consumed power and efficient.
    n1s, trials, splits, solved = [], [], [], [[], [], []]
    normals = draw_normals(cfg, range(n_trials))  # every antenna split reads a trial's normals
    rows, size = (n_total - 1) * n_trials, max(1, STUDY_BATCH_CELLS // n_p)
    for first in range(0, rows, size):
        last, stacks = min(first + size, rows), {}
        for n1 in range(first // n_trials + 1, (last - 1) // n_trials + 2):
            lo, hi = max(first - (n1 - 1) * n_trials, 0), min(last - (n1 - 1) * n_trials, n_trials)
            stacks[n1] = lo, cut_channels(normals[lo:hi], cfg.n_r, n1)
        gains = decompose_groups([(channels.hr1, channels.hr2) for _, channels in stacks.values()],
                                 cfg.sigma1_sq, cfg.sigma2_sq)
        # The drawn cells: gains row, n1, trial and power split.
        drawn = np.flatnonzero(np.equal(gains.reasons, None))
        if not drawn.size:
            continue
        cell = np.arange(n_p * drawn.size)
        row, split = drawn[cell // n_p], cell % n_p
        n1, trial = np.divmod(first + row, n_trials)
        n1 += 1
        groups = []
        for split_n1, (lo, channels) in stacks.items():  # one MA group per antenna split, maybe empty
            of = n1 == split_n1
            at, p1 = trial[of] - lo, p1_splits[split[of]]
            groups.append((channels.h1r[at], channels.h2r[at], p1, p_total - p1, cfg.sigmar_sq))
        rates = np.concatenate([strategies.rates for strategies in max_ma_strategy_groups(groups)], axis=1)
        kept = ~np.isnan(rates[0])  # a dropped cell's rates are NaN
        sols = optimize_many(gains.take(row[kept]), rates[:, kept], cfg.pr_max)
        for column, values in ((n1s, n1), (trials, trial), (splits, split)):
            column += values[kept].tolist()
        for column, values in zip(solved, (sols.sum_rate_tw, sols.consumed_power, sols.efficient)):
            column += values.tolist()
    # A cell's aggregates reduce its row of a C-contiguous (cells, count) table
    # of the cells with as many records, in trial order: numpy sums a
    # contiguous last axis pairwise from 8 terms on, as np.mean does.
    cell = (np.array(n1s, dtype=int) - 1) * n_p + np.array(splits, dtype=int)
    done = np.bincount(cell, minlength=(n_total - 1) * n_p)
    order, values, sums = np.argsort(cell, kind="stable"), np.array(solved, dtype=float), np.zeros((3, done.size))
    for count in set(done.tolist()) - {0}:
        of = done == count
        sums[:, of] = np.add.reduce(np.take(values, order[np.repeat(of, done)], axis=1).reshape(3, -1, count), axis=-1)
    means = np.divide(sums, done, out=np.full_like(sums, np.nan), where=done > 0)
    p1_list = p1_splits.tolist()
    aggregates = [
        {"n1": n1, "n2": n_total - n1, "p1_max": p1, "p2_max": p_total - p1, "trials": spec.trials,
         "completed": count, "skipped": spec.trials - count, "avg_sum_rate_tw": rate,
         "avg_consumed_power": power, "efficient_fraction": fraction}
        for (n1, p1), count, rate, power, fraction in zip(
            itertools.product(range(1, n_total), p1_list), done.tolist(), *means.tolist())
    ]
    p1s = [p1_list[s] for s in splits]
    records = list(map(AsymRecord, trials, n1s, [n_total - n1 for n1 in n1s], p1s, [p_total - p1 for p1 in p1s],
                       *solved))
    return records, aggregates


def _load_instance(path: str, cfg: SystemConfig) -> tuple[SubchannelGains, SourceRates, float, RelaySolution]:
    """An instance file's gains, rates, budget and solution; ConfigError if it breaks an input rule."""
    try:
        payload = json.loads(Path(path).read_text())
        gains = synthetic_gains(payload["alpha1"], payload["alpha2"])
        rates = SourceRates(payload["r_ma"], payload["r_bar_1r"], payload["r_bar_2r"])
        pr_max = float(_checked(payload.get("pr_max", cfg.pr_max), "pr_max"))
        sol = optimize(gains, rates, pr_max)
    except (OSError, KeyError, TypeError, ValueError, InvalidStrategyError) as exc:
        raise ConfigError(f"bad instance file {path}: {exc}") from exc
    return gains, rates, pr_max, sol


def run_single(spec: ScenarioSpec) -> tuple[list[SingleRecord], dict]:
    """One instance end to end, with optional grid certification."""
    cfg = spec.config
    if spec.instance_path is not None:
        gains, strategy, pr_max, sol = _load_instance(spec.instance_path, cfg)
        # An explicit instance has no antennas behind it and unit noise.
        n1, n2, nr, sigma_sq = 0, 0, gains.n_r, 1.0
    else:
        channels = generate_channels(cfg, 0)
        gains = decompose(channels, cfg)
        strategy = max_ma_strategy(channels, cfg)
        pr_max = cfg.pr_max
        sol = optimize(gains, strategy, pr_max)
        n1, n2, nr, sigma_sq = cfg.n1, cfg.n2, cfg.n_r, cfg.sigmar_sq
    row = (0, n1, n2, nr, cfg.p1_max, cfg.p2_max, pr_max, sigma_sq, *_solution_values(strategy, sol))
    if not spec.certify:
        return [SingleRecord(*row)], {"trials": 1, "skipped": 0}
    res = _certified(gains, strategy, pr_max, spec.resolution)
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
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _rounded(values) -> list:
    """A column of JSON values: Python scalars (a numpy float64 is a float), floats rounded as in CSV."""
    return [float(f"{v:.12g}") if isinstance(v, float) else v for v in values]


def _json_rows(keys, columns) -> list:
    """Flat JSON rows of the columns under the keys, each column rounded once."""
    return [dict(zip(keys, row)) for row in zip(*map(_rounded, columns))]


def _schema(spec: ScenarioSpec, records: list) -> tuple:
    """The records' field names, which head the CSV columns and key the JSON rows, and their columns."""
    return (type(records[0]) if records else SCENARIOS[spec.scenario].record)._fields, zip(*records)


def render_csv(spec: ScenarioSpec, records: list) -> str:
    fields, columns = _schema(spec, records)
    lines = []
    if not spec.deterministic:
        lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(fields))
    lines += map(",".join, zip(*[list(map(_fmt_cell, column)) for column in columns]))
    return "\n".join(lines) + "\n"


# The C encoders of flat rows under a top-level key and in a top-level list:
# their item separators carry the newline and indentation of indent=2.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))
_LIST_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, without its pure-Python encoder.

    The payload maps string keys to scalars, to flat rows (dicts of
    scalars) and to lists of nonempty flat rows. A list of rows is one C
    encoder call, split into rows where the row separator meets "}," and
    "{", which no row holds inside (its values are scalars, and an encoded
    string holds no raw newline).
    """
    items = []
    for key, value in sorted(payload.items()):
        if isinstance(value, list) and value:
            rows = _LIST_ROW_ENCODER.encode(value)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            text = "[\n    {\n      " + rows + "\n    }\n  ]"
        elif isinstance(value, dict) and value:
            text = "{\n    " + _ROW_ENCODER.encode(value)[1:-1] + "\n  }"
        else:
            text = json.dumps(value)  # a scalar, [] or {}
        items.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}"


def render_json(spec: ScenarioSpec, records: list, aggregates) -> str:
    """The JSON output. aggregates is one dict of counts, or the asymmetry
    study's list of cell rows, which share the first row's keys."""
    config = {"scenario": spec.scenario, **vars(spec.config), **{
        name: getattr(spec, name) for name in ("trials", "sweep_start", "sweep_stop", "sweep_points", "certify")}}
    if isinstance(aggregates, dict):
        aggregates = dict(zip(aggregates, _rounded(aggregates.values())))
    elif aggregates:
        aggregates = _json_rows(aggregates[0], zip(*(row.values() for row in aggregates)))
    payload = {
        "config": dict(zip(config, _rounded(config.values()))),
        "records": _json_rows(*_schema(spec, records)),
        "aggregates": aggregates,
    }
    if not spec.deterministic:
        payload["generated"] = datetime.now(timezone.utc).isoformat()
    return _json_text(payload) + "\n"


def emit(spec: ScenarioSpec, records: list, aggregates) -> None:
    text = render_csv(spec, records) if spec.fmt == "csv" else render_json(spec, records, aggregates)
    if spec.out is None:
        sys.stdout.write(text)
    else:
        Path(spec.out).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twrelay", description="Two-way relay power allocation scenarios")
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


# Built on the first parse (several times a parse's cost), not at import.
_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; omitted flags take the scenario's defaults."""
    args = _parser().parse_args(argv)
    for name, value in SCENARIOS[args.scenario].defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    return args


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
