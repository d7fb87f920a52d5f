"""Answers do not depend on the units.

Scaling every noise variance and every power budget (P1, P2 and Pr) by a
common factor c leaves every SNR, and so the optimum, unchanged: the same
step path, the same rates, and powers scaled by c. The instances are the
shapes of acceptance C1 (grid-certified), C3 and C5 (budgets straddling
the thresholds), drawn at unit scale and rebuilt at each c from the same
channel matrices.
"""

import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay.sim_cli import main

from conftest import random_instance

SCALES = (1e-15, 1e-6, 1e6, 1e9)
RATE_TOL = 1e-12  # nats
POWER_RTOL = 1e-12
RESOLUTION = 1e-3


def _straddling(gains, strategy):
    """The C5 budgets: one inside each gap between distinct thresholds, one below, one above."""
    led = tw.thresholds(gains, tw.relative_levels(gains, strategy, 1.0), strategy)
    ths = sorted({led.p_ma, led.p_l, led.p_t, led.p_s, led.p_bar_ma})
    budgets = [0.5 * ths[0]] if ths[0] > 1e-9 else [1e-3]
    budgets += [0.5 * (a + b) for a, b in zip(ths, ths[1:]) if b - a > 1e-6]
    return budgets + [1.5 * ths[-1] + 0.1]


def _cases():
    """(config, channels, budgets, certify) per instance, at unit scale."""
    cases = []
    for seed, count, certify in ((2001, 40, True), (2003, 100, False)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            cfg, ch, _, _ = random_instance(rng)
            cases.append((cfg, ch, [float(rng.uniform(0.1, 10.0))], certify))
    rng = np.random.default_rng(2005)
    for _ in range(100):
        cfg, ch, gains, strategy = random_instance(rng)
        cases.append((cfg, ch, _straddling(gains, strategy), False))
    return cases


def _solve(cases, c):
    """Per (instance, budget) at scale c: solution, predicted path and grid certificate."""
    results = []
    for cfg, ch, budgets, certify in cases:
        cfg = dataclasses.replace(
            cfg, p1_max=cfg.p1_max * c, p2_max=cfg.p2_max * c,
            sigma1_sq=cfg.sigma1_sq * c, sigma2_sq=cfg.sigma2_sq * c, sigmar_sq=cfg.sigmar_sq * c,
        )
        gains = tw.decompose(ch, cfg)
        strategy = tw.max_ma_strategy(ch, cfg)
        for pr in budgets:
            pr *= c
            lv = tw.relative_levels(gains, strategy, pr)
            path = tw.classify_case(tw.thresholds(gains, lv, strategy), lv, pr)
            cert = tw.grid_certify(gains, strategy, pr, RESOLUTION * c) if certify else None
            results.append((tw.optimize(gains, strategy, pr), path, cert))
    return results


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.fixture(scope="module")
def unit_results(cases):
    return _solve(cases, 1.0)


@pytest.mark.parametrize("c", SCALES)
def test_paths_rates_and_powers_do_not_depend_on_units(c, cases, unit_results):
    results = _solve(cases, c)
    assert len(results) == len(unit_results) > 400
    for (sol, path, cert), (ref, ref_path, ref_cert) in zip(results, unit_results):
        assert sol.step_trace == ref.step_trace
        assert path == ref_path == sol.step_trace
        assert abs(sol.sum_rate_tw - ref.sum_rate_tw) <= RATE_TOL
        assert_allclose(sol.bc_rates, ref.bc_rates, rtol=0.0, atol=RATE_TOL)
        assert_allclose(sol.consumed_power / c, ref.consumed_power, rtol=POWER_RTOL, atol=0.0)
        if cert is not None:
            assert abs(cert.best_rate - ref_cert.best_rate) <= RATE_TOL
            assert_allclose(cert.min_power_at_best / c, ref_cert.min_power_at_best, rtol=POWER_RTOL, atol=0.0)


def _study(c, out):
    argv = [
        "--scenario", "asymmetry-study", "--trials", "20", "--sigma", repr(c),
        "--p1", repr(2.5 * c), "--p2", repr(2.5 * c), "--pr", repr(3.0 * c),
        "--format", "json", "--deterministic", "--out", str(out),
    ]
    assert main(argv) == 0
    return json.loads(out.read_text())["aggregates"]


@pytest.mark.parametrize("c", (1e-12, 1e9))
def test_asymmetry_study_does_not_depend_on_units(c, tmp_path):
    unit, scaled = _study(1.0, tmp_path / "unit.json"), _study(c, tmp_path / "scaled.json")
    assert len(scaled) == len(unit) == 25
    for got, want in zip(scaled, unit):
        assert (got["completed"], got["skipped"]) == (want["completed"], want["skipped"])
        assert got["avg_sum_rate_tw"] == want["avg_sum_rate_tw"]
        assert got["efficient_fraction"] == want["efficient_fraction"]
        assert_allclose(got["avg_consumed_power"] / c, want["avg_consumed_power"], rtol=POWER_RTOL, atol=0.0)
