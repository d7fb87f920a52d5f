"""Correctness checks on the program's outputs, computed independently.

Nothing here calls twrelay: rates and powers are recomputed with numpy from
the returned water levels, so a check cannot agree with the program merely
because it runs the same code. Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Absolute slack for a constraint (the C3 feasibility tolerance, nats / W).
FEAS_TOL = 1e-9
# Absolute slack between a reported quantity and its recomputation.
CONSISTENCY_TOL = 1e-9
# C1 tolerances: oracle rate gap (nats) and the power slack factor on the
# grid's Lipschitz bound.
ORACLE_RATE_GAP = 1e-6
ORACLE_POWER_BOUND_FACTOR = 2.0


def rate_of_level(alpha: np.ndarray, level: float) -> float:
    return float(np.sum(np.log(np.maximum(alpha * level, 1.0))))


def powers_of_level(alpha: np.ndarray, level: float) -> np.ndarray:
    return np.maximum(level - 1.0 / alpha, 0.0)


def solution_errors(sol, alpha1, alpha2, rates, pr: float) -> list[str]:
    """Feasibility (as in C3) and internal consistency of one RelaySolution.

    `rates` is (r_ma, r_bar_1r, r_bar_2r). Direction 1 carries node 2's
    message and is capped by r_bar_2r; direction 2 is capped by r_bar_1r.
    """
    r_ma, r1, r2 = rates
    errors = []
    values = (sol.level1, sol.level2, sol.consumed_power, sol.sum_rate_tw, *sol.bc_rates)
    if not all(math.isfinite(v) for v in values):
        return ["non-finite level, power or rate"]
    p1 = powers_of_level(alpha1, sol.level1)
    p2 = powers_of_level(alpha2, sol.level2)
    for name, got, want in (("powers1", sol.powers1, p1), ("powers2", sol.powers2, p2)):
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape or np.max(np.abs(got - want)) > CONSISTENCY_TOL:
            errors.append(f"{name} disagree with the water level")
    bc1 = rate_of_level(alpha1, sol.level1)
    bc2 = rate_of_level(alpha2, sol.level2)
    consumed = float(np.sum(p1) + np.sum(p2))
    tw_rate = 0.5 * min(r_ma, min(bc1, r2) + min(bc2, r1))
    for name, got, want in (
        ("consumed_power", sol.consumed_power, consumed),
        ("bc_rates[0]", sol.bc_rates[0], bc1),
        ("bc_rates[1]", sol.bc_rates[1], bc2),
        ("sum_rate_tw", sol.sum_rate_tw, tw_rate),
    ):
        if abs(got - want) > CONSISTENCY_TOL:
            errors.append(f"{name} {got!r} != recomputed {want!r}")
    if bc1 > r2 + FEAS_TOL:
        errors.append("direction-1 rate above its ceiling r_bar_2r")
    if bc2 > r1 + FEAS_TOL:
        errors.append("direction-2 rate above its ceiling r_bar_1r")
    if bc1 + bc2 > r_ma + FEAS_TOL:
        errors.append("broadcast rate sum above r_ma")
    if consumed > pr + FEAS_TOL:
        errors.append("consumed power above the relay budget")
    return errors


def path_errors(sol, expected: tuple[int, ...]) -> list[str]:
    if tuple(sol.step_trace) != tuple(expected):
        return [f"step path {sol.step_trace} != classify_case {expected}"]
    return []


def oracle_errors(sol, cert, alpha1, alpha2, resolution: float) -> list[str]:
    """C1: rate within 1e-6 nats of the grid optimum, power within 2x its Lipschitz bound."""
    errors = []
    if cert.best_rate - sol.sum_rate_tw > ORACLE_RATE_GAP:
        errors.append(f"rate {sol.sum_rate_tw!r} below oracle {cert.best_rate!r}")
    bound = ORACLE_POWER_BOUND_FACTOR * float(np.sum(alpha1) + np.sum(alpha2)) * resolution
    if sol.consumed_power > cert.min_power_at_best + bound:
        errors.append(
            f"power {sol.consumed_power!r} above oracle minimum "
            f"{cert.min_power_at_best!r} + {bound!r}"
        )
    return errors


def aggregates_digest(aggregates) -> str:
    """Digest of the asymmetry-study aggregates as the CLI wrote them (12 significant digits)."""
    text = json.dumps(aggregates, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def asym_output_errors(payload: dict, expected_digest: str, cells: int, pr: float) -> int:
    """Failed cells in one asymmetry-study JSON output.

    A cell fails when it was dropped, or when one of its records is
    infeasible; every cell fails when the aggregates differ from the
    reference output.
    """
    if aggregates_digest(payload["aggregates"]) != expected_digest:
        return cells
    failed = sum(agg["skipped"] for agg in payload["aggregates"])
    failed += abs(cells - failed - len(payload["records"]))
    for rec in payload["records"]:
        ok = (
            math.isfinite(rec["sum_rate_tw"])
            and rec["sum_rate_tw"] >= 0.0
            and 0.0 <= rec["consumed_power"] <= pr + FEAS_TOL
        )
        failed += not ok
    return min(failed, cells)
