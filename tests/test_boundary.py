"""The package boundary: its public names, and the input rules its entry points apply.

Each public name is listed once, in the ``__all__`` of the module that
defines it; the package exports their union. Every entry point converts
the numbers it takes from outside through one owner (waterfill._checked),
so each input rule raises its own error with one message, whichever entry
point a bad value comes in through, and a number beyond the float range
breaks the rule rather than float conversion.
"""

import re
import sys
import warnings

import numpy as np
import pytest

import twrelay as tw
from twrelay import channel, errors, ma_phase, oracle, relay_opt, sim_cli, waterfill
from twrelay.sim_cli import ScenarioSpec

LAYERS = (channel, errors, ma_phase, oracle, relay_opt, waterfill)


def test_package_exports_each_layer_name_once_from_its_owner():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert len(names) == len(set(names)), "a name is exported by two modules"
    assert tw.__all__ == sorted(names)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(tw, name) is getattr(layer, name)
            assert getattr(layer, name).__module__ == layer.__name__, f"{layer.__name__} re-exports {name}"
    namespace = {}
    exec("from twrelay import *", namespace)
    assert "rate_of_level" in namespace
    assert set(names) <= set(namespace)


CONFIG = tw.SystemConfig(n1=1, n2=2, n_r=2)
CHANNELS = tw.generate_channels(CONFIG, 0)
GAINS = tw.synthetic_gains([2.0, 1.0], [1.5])
RATES = tw.SourceRates(r_ma=1.0, r_bar_1r=0.8, r_bar_2r=0.7)
LEVELS = tw.relative_levels(GAINS, RATES, 1.0)
LEDGER = tw.thresholds(GAINS, LEVELS, RATES)
H1R, H2R = CHANNELS.h1r[np.newaxis], CHANNELS.h2r[np.newaxis]
HR1, HR2 = CHANNELS.hr1[np.newaxis], CHANNELS.hr2[np.newaxis]
D1, D2 = np.eye(1), np.eye(2)

BUDGET_RULE = "must be finite and nonnegative"
NOISE_RULE = "must be finite and at least sys.float_info.min"

# Entry point -> (call with one bad budget, the owner's message).
BUDGET_ENTRIES = {
    "SystemConfig": (lambda b: tw.SystemConfig(n1=1, n2=1, n_r=1, pr_max=b), "power budgets"),
    "max_ma_strategies": (lambda b: tw.max_ma_strategies(H1R, H2R, 1.0, b, 1.0), "power budgets"),
    "optimize": (lambda b: tw.optimize(GAINS, RATES, b), "pr_max"),
    "optimize_many": (lambda b: tw.optimize_many([GAINS] * 2, [RATES] * 2, [1.0, b]), "pr_max"),
    "relative_levels": (lambda b: tw.relative_levels(GAINS, RATES, b), "pr_max"),
    "grid_certify": (lambda b: tw.grid_certify(GAINS, RATES, b, 1e-2), "pr_max"),
    "forward_level": (lambda b: tw.forward_level(GAINS.alpha1, b), "budget"),
    "classify_case": (lambda b: tw.classify_case(LEDGER, LEVELS, b), "pr_max"),
}

# Entry point -> (call with one bad noise variance, the owner's message).
NOISE_ENTRIES = {
    "SystemConfig": (lambda s: tw.SystemConfig(n1=1, n2=1, n_r=1, sigmar_sq=s), "noise variances"),
    "max_ma_strategies": (lambda s: tw.max_ma_strategies(H1R, H2R, 1.0, 1.0, s), "the relay noise variance"),
    "strategy_from_covariances": (
        lambda s: tw.strategy_from_covariances(D1, D2, CHANNELS, s), "the relay noise variance"),
    "decompose_many": (lambda s: tw.decompose_many(HR1, HR2, 1.0, s), "noise variances"),
    "decompose_groups": (lambda s: tw.decompose_groups([(HR1, HR2)] * 2, [1.0, s], 1.0), "noise variances"),
    # The MA sum rate, and a single-user rate with the other covariance zero.
    "rate_ma": (lambda s: tw.strategy_from_covariances(D1, D2, CHANNELS, s).r_ma, "the relay noise variance"),
    "rate_bar": (lambda s: tw.strategy_from_covariances(0 * D1, D2, CHANNELS, s).r_bar_2r, "the relay noise variance"),
}


# Numbers no rule accepts: a Python int beyond the float range (it must
# break the rule, not float conversion), NaN and both infinities.
OUTSIDE_NUMBERS = [pytest.param(10**400, id="int-1e400"), np.nan, np.inf, -np.inf]


def _with(nested, value):
    """`nested` as lists, its first number replaced by `value`."""
    listed = np.asarray(nested).tolist()
    inner = listed
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = value
    return listed


def _channels(**matrices):
    """CHANNELS with the given matrices in place of its own."""
    return tw.ChannelSet(**{**vars(CHANNELS), **matrices})


# Entry point -> (call with one outside number, the rule's error, its message).
OUTSIDE_ENTRIES = {
    "SourceRates": (lambda x: tw.SourceRates(x, 0.8, 0.7), tw.InvalidStrategyError,
                    "source rates must be finite and nonnegative"),
    "SubchannelGains": (lambda x: tw.SubchannelGains([x], [1.0], np.eye(1), np.eye(1)), ValueError,
                        "alpha1 must be finite, strictly positive and sorted descending"),
    "SubchannelGains-v1": (lambda x: tw.SubchannelGains([1.0], [1.0], [[x]], np.eye(1)), ValueError,
                           "v1 must be finite"),
    "decompose": (lambda x: tw.decompose(_channels(hr1=_with(CHANNELS.hr1, x)), CONFIG), ValueError,
                  "hr1 must be finite"),
    "decompose_many-hr2": (lambda x: tw.decompose_many(HR1, _with(HR2, x), 1.0, 1.0), ValueError,
                           "hr2 must be finite"),
    "decompose_groups-hr1": (lambda x: tw.decompose_groups([(HR1, HR2), (_with(HR1, x), HR2)], 1.0, 1.0),
                             ValueError, "hr1 must be finite"),
    "relay_covariance": (lambda x: tw.relay_covariance(np.eye(1), [x]), ValueError,
                         "powers must be finite and nonnegative"),
    "synthetic_gains": (lambda x: tw.synthetic_gains([1.0], [2.0, x]), ValueError,
                        "alpha2 must be finite, strictly positive and sorted descending"),
    "max_ma_strategies-h1r": (lambda x: tw.max_ma_strategies(_with(H1R, x), H2R, 1.0, 1.0, 1.0), ValueError,
                              "uplinks must be finite"),
    "max_ma_strategies-h2r": (lambda x: tw.max_ma_strategies(H1R, _with(H2R, x), 1.0, 1.0, 1.0), ValueError,
                              "uplinks must be finite"),
    "strategy_from_covariances-h1r": (lambda x: tw.strategy_from_covariances(
        D1, D2, _channels(h1r=_with(CHANNELS.h1r, x)), 1.0), ValueError, "uplinks must be finite"),
    "strategy_from_covariances-d1": (lambda x: tw.strategy_from_covariances([[x]], D2, CHANNELS, 1.0), ValueError,
                                     "d1 must be finite"),
    "strategy_from_covariances-d2": (lambda x: tw.strategy_from_covariances(D1, _with(D2, x), CHANNELS, 1.0),
                                     ValueError, "d2 must be finite"),
    "grid_certify": (lambda x: tw.grid_certify(GAINS, RATES, 1.0, x), ValueError,
                     "resolution must be finite and positive"),
    "grid_lipschitz_bound": (lambda x: tw.grid_lipschitz_bound(GAINS, x), ValueError,
                             "resolution must be finite and positive"),
    "ScenarioSpec-sweep": (lambda x: ScenarioSpec("lemma2-sweep", CONFIG, sweep_start=x), tw.ConfigError,
                           "sweep bounds must be finite"),
    "ScenarioSpec-resolution": (lambda x: ScenarioSpec("single", CONFIG, certify=True, resolution=x),
                                tw.ConfigError, "certification resolution must be finite and positive"),
}


@pytest.mark.parametrize("bad", OUTSIDE_NUMBERS)
@pytest.mark.parametrize("entry", OUTSIDE_ENTRIES)
def test_every_entry_point_rejects_an_outside_number_by_its_own_rule(entry, bad):
    # Its rule's error and message: no OverflowError, no RuntimeWarning
    # (an error under pytest, pyproject.toml). The budget and noise rules'
    # entry points take the same numbers in the two tests below.
    call, error, message = OUTSIDE_ENTRIES[entry]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("bad", [*OUTSIDE_NUMBERS, -1.0])
@pytest.mark.parametrize("entry", BUDGET_ENTRIES)
def test_every_budget_entry_point_raises_the_budget_rule(entry, bad):
    call, name = BUDGET_ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} {BUDGET_RULE}")):
        call(bad)


@pytest.mark.parametrize("bad", [*OUTSIDE_NUMBERS, -1.0, 0.0, 1e-320])
@pytest.mark.parametrize("entry", NOISE_ENTRIES)
def test_every_noise_entry_point_raises_the_noise_rule(entry, bad):
    call, name = NOISE_ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} {NOISE_RULE}")):
        call(bad)


def test_every_budget_entry_point_accepts_a_zero_budget():
    for call, _ in BUDGET_ENTRIES.values():
        call(0.0)


def test_rates_that_overflow_at_the_least_noise_raise_a_value_error_naming_it():
    # sigma^2 = sys.float_info.min passes the noise rule, but H D H^H / sigma^2
    # is beyond the float range: no RuntimeWarning, no misleading InvalidStrategyError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            tw.strategy_from_covariances(D1, D2, CHANNELS, sys.float_info.min)
        # At sigma^2 = 1e-300 the same pair has finite rates.
        pair = tw.strategy_from_covariances(D1, D2, CHANNELS, 1e-300)
        assert np.isfinite([pair.r_ma, pair.r_bar_1r, pair.r_bar_2r]).all()


def test_finite_covariances_whose_rates_overflow_raise_the_overflow_error():
    # D + D^H overflows at 1e308; at 1e307, H D H^H does on a strong uplink.
    # No RuntimeWarning on the way (pytest makes one an error).
    strong = np.array([[3.0], [2.0]], dtype=complex)
    channels = tw.ChannelSet(h1r=strong, h2r=strong, hr1=strong.T, hr2=strong.T)
    for d1, d2, ch in (([[1e308]], D2, CHANNELS), (D1, 1e308 * D2, CHANNELS), ([[1e307]], [[0.0]], channels)):
        with pytest.raises(ValueError, match="^the MA-phase rates overflow"):
            tw.strategy_from_covariances(d1, d2, ch, 1.0)
    assert np.isfinite(tw.strategy_from_covariances([[1e306]], [[0.0]], channels, 1.0).r_ma)


def test_lemma2_sweep_at_the_least_noise_stays_finite(tmp_path):
    # At sigma^2 = 1e-300 the gains are about 1e300 and the levels reach 1e7:
    # alpha * level overflows although ln alpha + ln level is about 710 nats.
    # pytest turns a RuntimeWarning into an error (pyproject.toml).
    out = tmp_path / "lemma2.csv"
    argv = ["--scenario", "lemma2-sweep", "--sweep-stop", "3080", "--sigma", "1e-300", "--deterministic",
            "--out", str(out)]
    assert sim_cli.main(argv) == 0
    rows = out.read_text().splitlines()
    assert rows[0].split(",")[-1] == "bc_sum"
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.isfinite(values).all()
    assert np.count_nonzero(values[:, -1] > np.log(sys.float_info.max)) >= 121  # each overflowed before


def test_rate_of_level_keeps_its_bits_on_finite_products_and_splits_the_log_on_overflow(rng):
    big = np.array([1e300, 3e299, 2.0])
    for gains, level in ((big, 1e8), (big, np.array([0.5, 1e8, 1.8e8, 1e-301])),
                         (waterfill.gain_table([big, big[1:], np.array([0.5])]), np.array([1e8, 1e9, 4.0]))):
        got = waterfill.rate_of_level(gains, level)
        table = np.asarray(gains)
        lv = np.asarray(level)[..., np.newaxis] if table.ndim == 1 else np.asarray(level)[:, np.newaxis]
        with np.errstate(over="ignore"):
            product = lv * table
        split = np.log(np.maximum(lv, 1.0)) + np.log(np.maximum(table, 1.0))
        want = np.where(product == np.inf, split, np.log(np.maximum(product, 1.0))).sum(axis=-1)
        assert np.isfinite(got).all() and np.asarray(got).tobytes() == want.tobytes()
    # Products that stay finite, up to the float range, keep the bits of the one-pass formula.
    for _ in range(20):
        gains = np.sort(np.exp(rng.uniform(-5.0, 690.0, size=4)))[::-1]
        level = np.exp(rng.uniform(-5.0, 709.0 - np.log(gains[0]), size=40))
        assert waterfill.rate_of_level(gains, level).tobytes() == waterfill._rate(gains, level).tobytes()


# --- shapes ---------------------------------------------------------------------

UPLINK_SHAPE_RULE = "uplinks must be 3-D stacks with the same N in h1r and h2r"


def _stack(h, n):
    return np.repeat(h, n, axis=0)


# Entry point -> (a call with uplinks, a budget or a noise variance of the wrong shape, its rule's message).
SHAPE_ENTRIES = {
    "h1r-1-h2r-3": (lambda: tw.max_ma_strategies(H1R, _stack(H2R, 3), 1.0, 1.0, 1.0), UPLINK_SHAPE_RULE),
    "h1r-3-h2r-1": (lambda: tw.max_ma_strategies(_stack(H1R, 3), H2R, 1.0, 1.0, 1.0), UPLINK_SHAPE_RULE),
    "h1r-2-h2r-3": (lambda: tw.max_ma_strategies(_stack(H1R, 2), _stack(H2R, 3), 1.0, 1.0, 1.0),
                    UPLINK_SHAPE_RULE),
    "h1r-2-D": (lambda: tw.max_ma_strategies(CHANNELS.h1r, H2R, 1.0, 1.0, 1.0), UPLINK_SHAPE_RULE),
    "groups-h2r-2-D": (lambda: tw.max_ma_strategy_groups([(H1R, H2R, 1.0, 1.0, 1.0),
                                                          (H1R, CHANNELS.h2r, 1.0, 1.0, 1.0)]), UPLINK_SHAPE_RULE),
    "budget-2-for-3": (lambda: tw.max_ma_strategies(_stack(H1R, 3), _stack(H2R, 3), [1.0, 2.0], 1.0, 1.0),
                       "power budgets must be one value, or one per instance"),
    "budget-1x3": (lambda: tw.max_ma_strategies(_stack(H1R, 3), _stack(H2R, 3), 1.0, [[1.0, 2.0, 3.0]], 1.0),
                   "power budgets must be one value, or one per instance"),
    "noise-2-for-3": (lambda: tw.max_ma_strategies(_stack(H1R, 3), _stack(H2R, 3), 1.0, 1.0, [1.0, 2.0]),
                      "the relay noise variance must be one value, or one per instance"),
    "optimize_many-3-for-2": (lambda: tw.optimize_many([GAINS] * 2, [RATES] * 2, [1.0, 2.0, 3.0]),
                              "pr_max must be one budget, or one per instance"),
}


@pytest.mark.parametrize("entry", SHAPE_ENTRIES)
def test_every_batch_entry_point_raises_its_shape_rule(entry):
    # A ValueError with the rule's message, not an IndexError, a TypeError
    # or numpy's broadcast error.
    call, message = SHAPE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_inverse_kernels_take_no_targets_as_the_forward_ones_take_no_budgets():
    assert waterfill.inverse_level(GAINS.alpha1, np.array([])).shape == (0,)
    found = waterfill.inverse_waterfill(GAINS.alpha1, np.array([]))
    assert found.level.shape == found.rate.shape == found.total_power.shape == (0,)
    assert found.powers.shape == (0, GAINS.alpha1.size)


# --- gains below 1 / float max ---------------------------------------------------

TINY_GAIN = 1e-310  # its 1/alpha is past the float range, as a padded cell's 1/0 is


def _solution(sol):
    return (sol.level1, sol.level2, sol.powers1[:1].tolist(), sol.powers2.tolist(), sol.consumed_power,
            sol.sum_rate_tw, sol.bc_rates, sol.step_trace, sol.efficient, sol.source_waste)


# Entry point -> what it returns on gains, its rows' powers on the first gain cut to that gain.
INERT_ENTRIES = {
    "forward_level": lambda g: waterfill.forward_level(g.alpha1, 1.0),
    "power_of_level": lambda g: waterfill.power_of_level(g.alpha1, 2.0),
    "powers_of_level": lambda g: waterfill.powers_of_level(g.alpha1, 2.0)[:1].tolist(),
    "inverse_waterfill": lambda g: (lambda a: (a.level, a.powers[:1].tolist(), a.rate, a.total_power))(
        waterfill.inverse_waterfill(g.alpha1, 0.3)),
    "optimize": lambda g: [_solution(tw.optimize(g, RATES, pr)) for pr in (0.1, 1.0, 3.0, 10.0)],
    "grid_certify": lambda g: tw.grid_certify(g, RATES, 3.0, 1e-2),
    "thresholds": lambda g: tw.thresholds(g, tw.relative_levels(g, RATES, 3.0), RATES),
}


@pytest.mark.parametrize("entry", INERT_ENTRIES)
def test_a_gain_below_one_over_the_float_maximum_is_inert_like_a_padded_cell(entry):
    # No RuntimeWarning (an error under pytest, pyproject.toml), and what
    # the instance without that gain gives.
    call = INERT_ENTRIES[entry]
    assert call(tw.synthetic_gains([1.0, TINY_GAIN], [2.0])) == call(tw.synthetic_gains([1.0], [2.0]))
