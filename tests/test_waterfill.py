"""Water-filling kernel tests: frozen examples, round trips, optimality."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from twrelay.waterfill import (
    forward_level,
    forward_waterfill,
    inverse_waterfill,
    power_of_level,
    rate_of_level,
)

from conftest import random_gain_list


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


# --- forward_waterfill ---------------------------------------------------


def test_forward_single_channel():
    alloc = forward_waterfill([1.0], 1.0)
    assert_allclose(alloc.level, 2.0, rtol=1e-14)
    assert_allclose(alloc.powers, [1.0], rtol=1e-14)
    assert_allclose(alloc.rate, np.log(2.0), rtol=1e-14)


def test_forward_partial_activation():
    alloc = forward_waterfill([4.0, 1.0], 0.5)
    assert_allclose(alloc.level, 0.75, rtol=1e-14)
    assert_allclose(alloc.powers, [0.5, 0.0], atol=1e-15)


def test_forward_symmetric():
    alloc = forward_waterfill([1.0, 1.0], 6.0)
    assert_allclose(alloc.level, 4.0, rtol=1e-14)
    assert_allclose(alloc.powers, [3.0, 3.0], rtol=1e-14)


def test_forward_zero_budget():
    alloc = forward_waterfill([4.0, 1.0], 0.0)
    assert_allclose(alloc.level, 0.25, rtol=1e-14)
    assert np.all(alloc.powers == 0.0)
    assert alloc.rate == 0.0


def test_forward_level_vectorized_matches_scalar(rng):
    for _ in range(50):
        gains = random_gain_list(rng)
        budgets = rng.uniform(0.0, 20.0, size=8)
        vec = forward_level(gains, budgets)
        for b, lv in zip(budgets, vec):
            assert forward_level(gains, float(b)) == lv


def test_forward_rejects_bad_inputs():
    # Malformed gain lists are rejected where instances are built
    # (test_channel::test_malformed_gains_rejected_at_construction).
    with pytest.raises(ValueError):
        forward_waterfill([1.0], -0.5)


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
    fwd = forward_waterfill(gains, budget)
    inv = inverse_waterfill(gains, fwd.rate)
    assert abs(inv.level - fwd.level) <= 1e-10 * max(1.0, fwd.level)
    assert abs(fwd.total_power - budget) <= 1e-12 * max(1.0, budget)


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
        best = forward_waterfill(gains, budget).rate
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
        alloc = forward_waterfill(gains, float(rng.uniform(0.0, 10.0)))
        assert np.all(np.diff(alloc.powers) <= 1e-15)
