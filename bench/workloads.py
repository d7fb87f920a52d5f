"""The three benchmark workloads.

Inputs are built only through twrelay's public API, from the workload seed.
The program is handed generated instances and never learns which workload
it serves. All workloads run at unit noise power (sigma^2 = 1 W).

Each workload is a fixed, seed-determined *pass* of instances. The timed
phase cycles through the pass; the traced phase runs it exactly once, so
the traced counts repeat exactly for a given seed. ``run(i)`` is the timed
call; ``failures(i, out)`` checks its output afterwards, untimed, and
returns how many of the instance's units (solves or study cells) failed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

SIGMA_SQ = 1.0

# asym-mc: the paper's asymmetry study at its CLI defaults (n1 + n2 = 6,
# n_r = 6, P1 + P2 = 5 W, Pr = 3 W): 5 antenna splits x 5 power splits.
ASYM_TRIALS_PER_CALL = 1
ASYM_CELLS_PER_TRIAL = 25
ASYM_PASS_CALLS = 256
ASYM_PR = 3.0
GOLDEN_PATH = Path(__file__).with_name("asym_golden.json")

# relay-regimes: C5 shape, channel realizations per pass.
REGIME_CHANNELS = 300
# certify: C1 shape at the CLI's default resolution.
CERTIFY_INSTANCES = 1000
CERTIFY_RESOLUTION = 1e-3


def asym_argv(cli_seed: int, out: Path) -> list[str]:
    return [
        "--scenario", "asymmetry-study", "--trials", str(ASYM_TRIALS_PER_CALL),
        "--n1", "3", "--n2", "3", "--nr", "6",
        "--p1", "2.5", "--p2", "2.5", "--pr", str(ASYM_PR), "--sigma", str(SIGMA_SQ),
        "--seed", str(cli_seed), "--format", "json", "--deterministic", "--out", str(out),
    ]


# Antenna configurations n1 / n2 / n_r of the C1/C3/C5 instances.
ANTENNAS = [(n1, n2, nr) for n1 in (1, 2, 3) for n2 in (1, 2, 3) for nr in (1, 2, 3, 4)]


def _antenna_mix(rng, count: int) -> list[tuple[int, int, int]]:
    """`count` configurations from ANTENNAS in random order, each used equally
    often up to a random remainder.

    Each instance is still equally likely to get any configuration, as with
    independent draws, but the mix, and with it the cost of a pass, hardly
    changes with the seed.
    """
    rounds = -(-count // len(ANTENNAS))
    picks = np.concatenate([rng.permutation(len(ANTENNAS)) for _ in range(rounds)])[:count]
    return [ANTENNAS[k] for k in rng.permutation(picks)]


def _spread_uniform(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """`count` draws uniform in [lo, hi], one in each of `count` equal strata,
    in random order (stratified sampling: the same law, a steadier mean)."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def _random_instance(tw, rng, antennas: tuple[int, int, int]):
    """Random instance with the given antennas and its max-MA strategy (C1/C3/C5 shape).

    Returns None when the draw is unusable (rank-zero downlink or a
    non-converging strategy), which the caller counts and redraws.
    """
    n1, n2, n_r = antennas
    cfg = tw.SystemConfig(
        n1=n1,
        n2=n2,
        n_r=n_r,
        p1_max=float(rng.uniform(0.2, 4.0)),
        p2_max=float(rng.uniform(0.2, 4.0)),
        sigma1_sq=SIGMA_SQ,
        sigma2_sq=SIGMA_SQ,
        sigmar_sq=SIGMA_SQ,
        seed=int(rng.integers(0, 2**31)),
    )
    channels = tw.generate_channels(cfg, 0)
    try:
        return tw.decompose(channels, cfg), tw.max_ma_strategy(channels, cfg)
    except (tw.RankZeroError, tw.NoConvergenceError):
        return None


def _rates(strategy) -> tuple[float, float, float]:
    return (strategy.r_ma, strategy.r_bar_1r, strategy.r_bar_2r)


class Workload:
    units_per_instance = 1
    dropped = 0  # unusable random draws redrawn in set-up

    def prepare_checks(self, tw) -> None:
        """Compute reference data for the checks, untimed and untraced."""

    def close(self) -> None:
        """Remove files the workload wrote."""


class RelayRegimes(Workload):
    """One ``optimize`` per instance, budgets straddling every threshold."""

    name = "relay-regimes"

    def __init__(self, tw, modules, seed: int, scratch: Path) -> None:
        rng = np.random.default_rng(seed)
        self.relay_opt = modules["relay_opt"]
        self.dropped = 0
        calls = []
        mix = _antenna_mix(rng, REGIME_CHANNELS)
        while len(calls) < REGIME_CHANNELS:
            inst = _random_instance(tw, rng, mix[len(calls)])
            if inst is None:
                self.dropped += 1
                continue
            gains, strategy = inst
            ledger = tw.thresholds(gains, tw.relative_levels(gains, strategy, 1.0), strategy)
            ths = sorted({ledger.p_ma, ledger.p_l, ledger.p_t, ledger.p_s, ledger.p_bar_ma})
            budgets = [0.5 * ths[0]] if ths[0] > 1e-9 else [1e-3]
            budgets += [0.5 * (a + b) for a, b in zip(ths, ths[1:]) if b - a > 1e-6]
            budgets.append(1.5 * ths[-1] + 0.1)
            calls.append([(gains, strategy, float(pr)) for pr in budgets])
        self.calls = [c for group in calls for c in group]
        self.order = rng.permutation(len(self.calls))
        self.expected = None

    def __len__(self) -> int:
        return len(self.order)

    def prepare_checks(self, tw) -> None:
        self.expected = []
        for gains, strategy, pr in self.calls:
            lv = tw.relative_levels(gains, strategy, pr)
            self.expected.append(tw.classify_case(tw.thresholds(gains, lv, strategy), lv, pr))

    def run(self, i: int):
        gains, strategy, pr = self.calls[self.order[i]]
        return self.relay_opt.optimize(gains, strategy, pr)

    def failures(self, i: int, sol) -> int:
        if isinstance(sol, Exception):
            return 1
        k = self.order[i]
        gains, strategy, pr = self.calls[k]
        errors = checks.solution_errors(sol, gains.alpha1, gains.alpha2, _rates(strategy), pr)
        errors += checks.path_errors(sol, self.expected[k])
        return int(bool(errors))


class Certify(Workload):
    """``optimize`` then ``grid_certify`` at 1e-3 W, budget uniform in [0.1, 10] W."""

    name = "certify"

    def __init__(self, tw, modules, seed: int, scratch: Path) -> None:
        rng = np.random.default_rng(seed)
        self.relay_opt = modules["relay_opt"]
        self.oracle = modules["oracle"]
        self.dropped = 0
        self.calls = []
        mix = _antenna_mix(rng, CERTIFY_INSTANCES)
        budgets = _spread_uniform(rng, CERTIFY_INSTANCES, 0.1, 10.0)
        while len(self.calls) < CERTIFY_INSTANCES:
            k = len(self.calls)
            inst = _random_instance(tw, rng, mix[k])
            if inst is None:
                self.dropped += 1
                continue
            self.calls.append((*inst, float(budgets[k])))

    def __len__(self) -> int:
        return len(self.calls)

    def run(self, i: int):
        gains, strategy, pr = self.calls[i]
        sol = self.relay_opt.optimize(gains, strategy, pr)
        return sol, self.oracle.grid_certify(gains, strategy, pr, CERTIFY_RESOLUTION)

    def failures(self, i: int, out) -> int:
        if isinstance(out, Exception):
            return 1
        sol, cert = out
        gains, strategy, pr = self.calls[i]
        a1, a2 = gains.alpha1, gains.alpha2
        errors = checks.solution_errors(sol, a1, a2, _rates(strategy), pr)
        errors += checks.oracle_errors(sol, cert, a1, a2, CERTIFY_RESOLUTION)
        return int(bool(errors))


class AsymMc(Workload):
    """The asymmetry study through ``sim_cli.main``, one CLI call per trial."""

    name = "asym-mc"
    units_per_instance = ASYM_TRIALS_PER_CALL * ASYM_CELLS_PER_TRIAL

    def __init__(self, tw, modules, seed: int, scratch: Path) -> None:
        rng = np.random.default_rng(seed)
        self.sim_cli = modules["sim_cli"]
        self.out = scratch / f"asym-mc-{seed}.json"
        pool = json.loads(GOLDEN_PATH.read_text())["digests"]
        self.cli_seeds = [int(s) for s in rng.choice(len(pool), ASYM_PASS_CALLS, replace=False)]
        self.argvs = [asym_argv(s, self.out) for s in self.cli_seeds]
        self.expected = [pool[s] for s in self.cli_seeds]

    def __len__(self) -> int:
        return len(self.argvs)

    def prepare_checks(self, tw) -> None:
        self.out.parent.mkdir(parents=True, exist_ok=True)

    def run(self, i: int):
        return self.sim_cli.main(self.argvs[i])

    def failures(self, i: int, code) -> int:
        cells = self.units_per_instance
        if isinstance(code, Exception) or code != 0:
            return cells
        payload = json.loads(self.out.read_text())
        return checks.asym_output_errors(payload, self.expected[i], cells, ASYM_PR)

    def close(self) -> None:
        self.out.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (AsymMc, RelayRegimes, Certify)}
