"""Water-filling kernel tests: frozen examples, round trips, optimality."""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import twrelay as tw
from twrelay import waterfill
from twrelay.waterfill import (
    forward_level,
    gain_table,
    inverse_level,
    inverse_waterfill,
    power_of_level,
    powers_of_level,
    rate_of_level,
)

from conftest import random_gain_list, searchsorted_forward_level


def _powers(gains, level):
    """Per-subchannel powers (level - 1/alpha(k))^+ of a level, or of one level per table row."""
    with np.errstate(divide="ignore"):
        return np.maximum(np.asarray(level)[..., np.newaxis] - 1.0 / np.asarray(gains), 0.0)


def gain_lists(max_len=6):
    return st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=max_len
    ).map(lambda xs: np.sort(np.asarray(xs))[::-1])


# --- rate_of_level -------------------------------------------------------


def test_rate_single_active_channel():
    # Level 0.75 activates only the gain-4 channel: ln(4 * 0.75) = ln 3.
    assert_allclose(rate_of_level([4.0, 1.0], 0.75), np.log(3.0), rtol=1e-14)


def test_rate_zero_level_is_zero():
    assert rate_of_level([3.0, 2.0, 0.5], 0.0) == 0.0


def test_rate_single_channel():
    assert_allclose(rate_of_level([1.0], 2.0), np.log(2.0), rtol=1e-14)


def test_rate_at_top_breakpoint_is_zero():
    assert rate_of_level([4.0, 1.0], 0.25) == 0.0


# --- power_of_level ------------------------------------------------------


def test_power_breakpoint_example():
    assert_allclose(power_of_level([4.0, 1.0], 0.75), 0.5, rtol=1e-14)


def test_power_symmetric_gains():
    assert_allclose(power_of_level([2.0, 2.0], 1.5), 2.0, rtol=1e-14)


def test_power_zero_at_top_breakpoint():
    assert power_of_level([5.0, 2.0], 0.2) == 0.0


# --- forward_level --------------------------------------------------------


def test_forward_single_channel():
    level = forward_level([1.0], 1.0)
    assert_allclose(level, 2.0, rtol=1e-14)
    assert_allclose(_powers([1.0], level), [1.0], rtol=1e-14)
    assert_allclose(rate_of_level([1.0], level), np.log(2.0), rtol=1e-14)


def test_forward_partial_activation():
    level = forward_level([4.0, 1.0], 0.5)
    assert_allclose(level, 0.75, rtol=1e-14)
    assert_allclose(_powers([4.0, 1.0], level), [0.5, 0.0], atol=1e-15)


def test_forward_symmetric():
    level = forward_level([1.0, 1.0], 6.0)
    assert_allclose(level, 4.0, rtol=1e-14)
    assert_allclose(_powers([1.0, 1.0], level), [3.0, 3.0], rtol=1e-14)


def test_forward_zero_budget():
    level = forward_level([4.0, 1.0], 0.0)
    assert_allclose(level, 0.25, rtol=1e-14)
    assert np.all(_powers([4.0, 1.0], level) == 0.0)
    assert rate_of_level([4.0, 1.0], level) == 0.0


def test_forward_level_vectorized_matches_scalar(rng):
    for _ in range(50):
        gains = random_gain_list(rng)
        budgets = rng.uniform(0.0, 20.0, size=8)
        vec = forward_level(gains, budgets)
        for b, lv in zip(budgets, vec):
            assert forward_level(gains, float(b)) == lv


def _budgets_on_and_around_thresholds(rng, gains, size):
    """Random budgets plus zero and every activation threshold exactly."""
    inv = 1.0 / gains
    thresholds = np.arange(1.0, gains.size + 1) * inv - inv.cumsum()
    edges = np.concatenate([[0.0], thresholds, np.nextafter(thresholds, 0.0)])
    return np.concatenate([edges, rng.uniform(0.0, 1.5 * thresholds[-1] + 1.0, size=size)])


def test_forward_level_counting_matches_searchsorted(rng):
    # Short and long budget vectors, so both the (..., K) and the
    # subchannel-major layout of the count are checked.
    for width in range(1, 9):
        for size in (3, 4000):
            gains = np.sort(np.exp(rng.normal(0.0, 2.0, size=width)))[::-1]
            budgets = rng.permutation(_budgets_on_and_around_thresholds(rng, gains, size))
            got = forward_level(gains, budgets)
            assert got.tobytes() == searchsorted_forward_level(gains, budgets).tobytes()
            assert [forward_level(gains, b) for b in budgets[:40]] == got[:40].tolist()
    # Padded table rows: fewer than 32, and more in tables narrower than 8
    # (subchannel-major) and 8 wide.
    for count, widest in ((20, 8), (600, 7), (600, 8)):
        rows = [np.sort(np.exp(rng.normal(0.0, 2.0, size=int(k))))[::-1]
                for k in rng.integers(1, widest + 1, size=count)]
        budgets = np.array([rng.choice(_budgets_on_and_around_thresholds(rng, row, 2)) for row in rows])
        got = forward_level(gain_table(rows), budgets)
        want = [searchsorted_forward_level(row, b) for row, b in zip(rows, budgets)]
        assert got.tobytes() == np.array(want).tobytes()


def test_forward_rejects_bad_inputs():
    # Malformed gain lists are rejected where instances are built
    # (test_channel::test_malformed_gains_rejected_at_construction).
    for budget in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            forward_level([1.0], budget)


# --- inverse_waterfill ----------------------------------------------------


def test_inverse_round_trip_of_forward_example():
    assert_allclose(inverse_waterfill([1.0], np.log(2.0)).level, 2.0, rtol=1e-14)


def test_inverse_single_active_channel():
    # Target ln 3 on [4, 1] keeps one channel active: level 3/4.
    assert_allclose(inverse_waterfill([4.0, 1.0], np.log(3.0)).level, 0.75, rtol=1e-14)


def test_inverse_zero_target():
    alloc = inverse_waterfill([4.0, 1.0], 0.0)
    assert_allclose(alloc.level, 0.25, rtol=1e-14)
    assert alloc.total_power == 0.0


def test_inverse_rejects_bad_and_overflowing_targets():
    for target in (-0.5, np.nan, np.inf, 800.0, 2 * 710.0):
        with pytest.raises(ValueError):
            inverse_waterfill([1.0], target)
    # The largest representable level still comes back, bit for bit.
    assert inverse_waterfill([1.0], 709.0).level == np.exp(709.0)
    assert inverse_waterfill([1.0, 1.0], 1400.0).level == np.exp(700.0)


# --- properties -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(gains=gain_lists(), budget=st.floats(min_value=0.0, max_value=1e3))
def test_round_trip_forward_inverse(gains, budget):
    level = forward_level(gains, budget)
    inv = inverse_waterfill(gains, rate_of_level(gains, level))
    assert abs(inv.level - level) <= 1e-10 * max(1.0, level)
    assert abs(power_of_level(gains, level) - budget) <= 1e-12 * max(1.0, budget)


@settings(max_examples=200, deadline=None)
@given(gains=gain_lists(), levels=st.tuples(
    st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e4)))
def test_rate_and_power_monotone_in_level(gains, levels):
    lo, hi = sorted(levels)
    assert rate_of_level(gains, hi) >= rate_of_level(gains, lo) - 1e-12
    assert power_of_level(gains, hi) >= power_of_level(gains, lo) - 1e-12


@settings(max_examples=100, deadline=None)
@given(gains=gain_lists(), target=st.floats(min_value=0.0, max_value=50.0))
def test_inverse_hits_target_rate(gains, target):
    alloc = inverse_waterfill(gains, target)
    assert abs(alloc.rate - target) <= 1e-10 * max(1.0, target)


def _simplex_grid(total, k, steps):
    """All nonnegative k-part splits of `total` on a regular grid."""
    fractions = np.linspace(0.0, 1.0, steps)
    if k == 1:
        yield np.asarray([total])
        return
    for head in fractions:
        for tail in _simplex_grid(total * (1.0 - head), k - 1, steps):
            yield np.concatenate([[total * head], tail])


def test_forward_beats_dense_power_split_grid(rng):
    # No explicit power split may beat the closed form by more than 1e-8.
    for _ in range(20):
        gains = random_gain_list(rng, max_len=4)
        budget = float(rng.uniform(0.1, 10.0))
        best = rate_of_level(gains, forward_level(gains, budget))
        k = gains.size
        if k <= 3:
            splits = _simplex_grid(budget, k, 40)
        else:
            splits = (budget * rng.dirichlet(np.ones(k)) for _ in range(20000))
        for powers in splits:
            rate = float(np.sum(np.log1p(gains * powers)))
            assert rate <= best + 1e-8


def test_powers_nonincreasing_with_gains(rng):
    for _ in range(50):
        gains = random_gain_list(rng, max_len=6)
        powers = _powers(gains, forward_level(gains, float(rng.uniform(0.0, 10.0))))
        assert np.all(np.diff(powers) <= 1e-15)


# --- padded tables ----------------------------------------------------------


def _mixed_rows(rng, count):
    """Descending gain lists of 1-7 gains, stored contiguous or as reversed views."""
    rows = []
    for k in range(count):
        ascending = np.sort(np.exp(rng.normal(0.0, 2.0, size=int(rng.integers(1, 8)))))
        rows.append(ascending[::-1] if k % 2 else ascending[::-1].copy())
    return rows


def test_table_rows_match_their_lists_bit_for_bit(rng):
    # A reversed view must give the bits of its table row, though np.log
    # rounds differently on one (about one value in a thousand).
    rows = _mixed_rows(rng, 300)
    table = gain_table(rows)
    budgets = rng.uniform(0.0, 20.0, size=len(rows))
    targets = rng.uniform(0.0, 8.0, size=len(rows))
    def forward(gains, budget):  # the fields of an inverse_waterfill result, forward
        level = forward_level(gains, budget)
        return (level, rate_of_level(gains, level), power_of_level(gains, level), powers_of_level(gains, level),
                _powers(gains, level))

    def inverse(gains, target):
        alloc = inverse_waterfill(gains, target)
        return alloc.level, alloc.rate, alloc.total_power, alloc.powers, _powers(gains, alloc.level)

    fwd, inv = forward(table, budgets), inverse(table, targets)
    assert np.array_equal(inverse_level(table, targets), inv[0])

    def same_powers(fields):  # the kernel's powers and the reference's, bit for bit
        return fields[3].tobytes() == fields[4].tobytes()

    assert same_powers(fwd) and same_powers(inv)
    for k, row in enumerate(rows):
        one_fwd, one_inv = forward(row, budgets[k]), inverse(row, targets[k])
        assert same_powers(one_fwd) and same_powers(one_inv)
        for (level, rate, power, powers, _), (one_level, one_rate, one_power, one_powers, _) in (
            (fwd, one_fwd), (inv, one_inv)
        ):
            assert level[k] == one_level and rate[k] == one_rate
            assert power[k] == one_power
            assert np.array_equal(powers[k, : row.size], one_powers)
            assert np.all(powers[k, row.size:] == 0.0)
        levels = np.array([one_fwd[0], one_inv[0]])
        assert rate_of_level(table, levels[:, np.newaxis])[:, k].tolist() == [
            rate_of_level(row, level) for level in levels
        ]
        assert power_of_level(table, levels[:, np.newaxis])[:, k].tolist() == [
            power_of_level(row, level) for level in levels
        ]


def test_inverse_level_does_not_depend_on_list_layout(rng):
    # np.log can round a value differently in a reversed view than in a
    # contiguous array (about one value in a thousand on an AVX-512 x86-64
    # host). Each such value heads a two-gain list stored reversed, whose
    # zero-rate level is exp(-ln alpha_max): it would show the layout.
    x = np.exp(rng.normal(0.0, 2.0, size=60000))
    for v in x[np.log(x[::-1])[::-1] != np.log(x)]:
        view = np.array([0.5 * v, v])[::-1]
        assert inverse_level(view, 0.0) == inverse_level(view.copy(), 0.0)


def test_table_kernels_reject_bad_rows():
    table = gain_table([np.array([2.0, 1.0]), np.array([1.0])])
    for budgets in ([1.0, -0.5], [np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0]):
        with pytest.raises(ValueError):
            forward_level(table, budgets)
    for targets in ([1.0, np.nan], [-1.0, 1.0], [1.0, 800.0]):
        with pytest.raises(ValueError):
            inverse_waterfill(table, targets)


# --- prepared-table cores --------------------------------------------------


def _list_and_tables(rng, count):
    """A 1-D gain list, a padded table of rows 1 to 7 wide and one with a
    row 9 wide, each with `count` budgets (one per row for a table)."""
    rows = [np.sort(np.exp(rng.normal(0.0, 2.0, size=int(k))))[::-1] for k in rng.integers(1, 8, size=count)]
    wide = rows[:-1] + [np.sort(np.exp(rng.normal(0.0, 2.0, size=9)))[::-1]]
    return [np.sort(np.exp(rng.normal(0.0, 2.0, size=6)))[::-1].tolist(), gain_table(rows), gain_table(wide)]


@pytest.mark.parametrize("count", [5, 31, 32, 40])
def test_prepared_cores_match_the_public_kernels_bit_for_bit(rng, count):
    # Fewer than 32 amounts, and 32 or more, so both layouts of the count
    # and of the sums run, on rows narrower than 8 and on a row 9 wide.
    for gains in _list_and_tables(rng, count):
        budgets = rng.uniform(0.0, 20.0, size=count)
        targets = rng.uniform(0.0, 8.0, size=count)
        prepared = waterfill._prepared(np.asarray(gains, dtype=float))
        logs = waterfill._prepared(np.asarray(gains, dtype=float), log=True)
        levels = waterfill._level(prepared, budgets)
        assert levels.tobytes() == forward_level(gains, budgets).tobytes()
        assert waterfill._exp_level(logs, targets).tobytes() == inverse_level(gains, targets).tobytes()
        assert waterfill._power(prepared[0], levels).tobytes() == power_of_level(gains, levels).tobytes()
        assert waterfill._powers(prepared[0], levels).tobytes() == powers_of_level(gains, levels).tobytes()
        # The reduction-based cores against references summed in order by Python,
        # on one level per row and on a (2, N) stack as the relay engine passes.
        table = np.asarray(gains, dtype=float)
        for lv in (levels, np.array([levels, 1.5 * levels])):
            rate = waterfill._rate(table, lv)
            assert rate.tobytes() == np.asarray(rate_of_level(gains, lv)).tobytes()
            assert rate.tobytes() == _last_axis_rate(gains, lv).tobytes()
            assert waterfill._power(prepared[0], lv).tobytes() == _last_axis_power(gains, lv).tobytes()
        if table.ndim == 1:
            assert levels.tobytes() == searchsorted_forward_level(gains, budgets).tobytes()
        else:
            rows = [row[row > 0.0] for row in table]
            want = [searchsorted_forward_level(row, b) for row, b in zip(rows, budgets)]
            assert levels.tobytes() == np.array(want).tobytes()
        if np.ndim(gains) == 1:  # one scalar budget and target
            assert waterfill._level(prepared, budgets[0]) == forward_level(gains, float(budgets[0]))
            assert waterfill._exp_level(logs, targets[0]) == inverse_level(gains, float(targets[0]))


def test_forward_level_counts_past_255_active_subchannels(rng):
    # 40 budgets take the subchannel-major count; on 300 gains it passes the
    # range of the uint8 that counts narrower lists.
    gains = np.sort(np.exp(rng.normal(0.0, 1.0, size=300)))[::-1]
    activation = waterfill._prepared(gains)[2]
    budgets = np.append(np.geomspace(1e-3, 2.0 * activation[-1], 39), 0.0)
    assert np.count_nonzero(budgets >= activation[255]) > 5  # 256 or more active
    want = searchsorted_forward_level(gains, budgets)
    assert forward_level(gains, budgets).tobytes() == want.tobytes()
    assert forward_level(gain_table([gains] * 40), budgets).tobytes() == want.tobytes()


def test_public_kernels_check_budgets_and_targets(rng):
    for gains in _list_and_tables(rng, 4):
        for bad in (np.nan, np.inf, -np.inf, -0.5):
            amounts = [1.0, bad, 2.0, 0.0]
            for kernel in (forward_level, inverse_level, inverse_waterfill):
                with pytest.raises(ValueError, match="must be finite and nonnegative"):
                    kernel(gains, amounts)
                if np.ndim(gains) == 1:
                    with pytest.raises(ValueError, match="must be finite and nonnegative"):
                        kernel(gains, bad)


# --- summation order -----------------------------------------------------


def _in_order(terms):
    """Reference sum over the last axis: Python floats added one after another from the left."""
    rows = terms.reshape(-1, terms.shape[-1]).tolist()
    return np.array([functools.reduce(operator.add, row) for row in rows]).reshape(terms.shape[:-1])


def _last_axis_rate(gains, level):
    """Reference rate_of_level: (..., K) terms summed over the last axis in order."""
    gains = np.asarray(gains, dtype=float)
    level = np.asarray(level, dtype=float)
    return _in_order(np.log(np.maximum(level[..., np.newaxis] * gains, 1.0)))


def _last_axis_power(gains, level):
    """Reference power_of_level: (..., K) terms summed over the last axis in order."""
    gains = np.asarray(gains, dtype=float)
    level = np.asarray(level, dtype=float)
    with np.errstate(divide="ignore"):
        inv = 1.0 / gains
    return _in_order(np.maximum(level[..., np.newaxis] - inv, 0.0))


@pytest.mark.parametrize("width", [*range(1, 17), 24])
def test_level_kernels_keep_the_bits_of_a_last_axis_sum(rng, width):
    # Both layouts, (..., K) terms and subchannel-major ones, add one
    # subchannel after another at every width, as a Python left-to-right sum
    # does; numpy's own last-axis sum is pairwise from 8 terms on.
    sizes = np.append(width, rng.integers(1, width + 1, size=47))
    rows = [np.sort(np.exp(rng.normal(0.0, 2.0, size=k)))[::-1] for k in sizes]
    table = gain_table(rows)
    levels = np.exp(rng.uniform(-6.0, 9.0, size=(2, len(rows))))
    cases = [(row, float(level)) for row, level in zip(rows, levels[0])]
    cases += [(rows[0], np.exp(rng.uniform(-6.0, 9.0, size=4000))), (table, levels[0]), (table, levels)]
    for gains, level in cases:
        rate, power = rate_of_level(gains, level), power_of_level(gains, level)
        assert type(rate) is type(power) is (float if np.ndim(level) == 0 else np.ndarray)
        assert np.asarray(rate).tobytes() == _last_axis_rate(gains, level).tobytes()
        assert np.asarray(power).tobytes() == _last_axis_power(gains, level).tobytes()


# --- the budget rule on scalars, and the cached index vectors -------------


@pytest.mark.parametrize("value", [1.5, 2, True, np.float64(0.25), -0.0, 0, 0.0, 5e-324, 1e300])
def test_scalar_budgets_pass_as_their_zero_d_arrays_do(value):
    checked = waterfill._checked(value, "pr_max")
    assert checked.ndim == 0 and checked.dtype == np.float64
    assert checked.tobytes() == waterfill._checked(np.asarray(value, dtype=float), "pr_max").tobytes()
    sol = tw.optimize(tw.synthetic_gains([1.0], [1.0]), tw.SourceRates(0.5, 0.4, 0.3), value)
    assert 0.0 <= sol.consumed_power <= float(value) * (1.0 + 1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300, -1.0, -3, np.float64(np.nan),
                                   np.float64(-np.inf)])
def test_scalar_budgets_fail_as_their_zero_d_arrays_do(value):
    for bad in (value, np.asarray(value, dtype=float)):
        with pytest.raises(ValueError, match=r"^pr_max must be finite and nonnegative$"):
            waterfill._checked(bad, "pr_max")
        with pytest.raises(ValueError, match=r"^pr_max must be finite and nonnegative$"):
            tw.optimize(tw.synthetic_gains([1.0], [1.0]), tw.SourceRates(0.5, 0.4, 0.3), bad)


def test_cached_index_vectors_are_read_only():
    for args in ((1.0, 4), (-1, 5, 3), (3,)):
        index = waterfill._arange(*args)
        assert index is waterfill._arange(*args)
        assert index.tobytes() == np.arange(*args).tobytes() and index.dtype == np.arange(*args).dtype
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 7
    assert waterfill._arange(1.0, 4).dtype == float and waterfill._arange(1, 4).dtype == int


@pytest.mark.parametrize("count", [1, 5, 11, 12, 13, 40])
def test_gain_table_pads_each_row_with_zeros(rng, count):
    # Row by row below 12 rows, through one mask from 12 on: the same table.
    rows = [np.sort(rng.uniform(0.1, 5.0, size=k))[::-1] for k in rng.integers(1, 7, size=count)]
    table = gain_table(rows)
    assert table.shape == (count, max(row.size for row in rows)) and table.dtype == float
    for got, row in zip(table, rows):
        assert got[: row.size].tobytes() == row.tobytes() and not got[row.size :].any()
