"""Shared builders for randomized test instances."""

import numpy as np
import pytest

import twrelay as tw


def random_config(rng, n_max=3, nr_max=4, sigma=1.0):
    return tw.SystemConfig(
        n1=int(rng.integers(1, n_max + 1)),
        n2=int(rng.integers(1, n_max + 1)),
        n_r=int(rng.integers(1, nr_max + 1)),
        p1_max=float(rng.uniform(0.2, 4.0)),
        p2_max=float(rng.uniform(0.2, 4.0)),
        pr_max=1.0,
        sigma1_sq=sigma,
        sigma2_sq=sigma,
        sigmar_sq=sigma,
        seed=int(rng.integers(0, 2**31)),
    )


def random_instance(rng, n_max=3, nr_max=4):
    """Random desk-scale instance: (config, channels, gains, strategy)."""
    while True:
        config = random_config(rng, n_max=n_max, nr_max=nr_max)
        channels = tw.generate_channels(config, 0)
        try:
            gains = tw.decompose(channels, config)
            strategy = tw.max_ma_strategy(channels, config)
        except (tw.RankZeroError, tw.NoConvergenceError):  # pragma: no cover
            continue
        return config, channels, gains, strategy


def random_gain_list(rng, max_len=4):
    gains = np.exp(rng.normal(0.0, 1.0, size=int(rng.integers(1, max_len + 1))))
    return np.sort(gains)[::-1]


def searchsorted_forward_level(gains, budget):
    """Reference forward_level for one gain list: the active-set size m by
    np.searchsorted into the sorted activation thresholds, the way the
    kernel found it before it counted them."""
    gains = np.asarray(gains, dtype=float)
    budget = np.asarray(budget, dtype=float)
    inv = 1.0 / gains
    csum = inv.cumsum()
    activation = np.arange(1.0, gains.size + 1) * inv - csum
    m = np.maximum(np.searchsorted(activation, budget, side="right"), 1)
    level = (budget + csum[m - 1]) / m
    return float(level) if level.ndim == 0 else level


def random_synthetic_rates(rng):
    """Rate triple satisfying max(r1, r2) < r_ma < r1 + r2 with real margin."""
    r1 = float(rng.uniform(0.2, 3.0))
    r2 = float(rng.uniform(0.2, 3.0))
    low = max(r1, r2)
    high = r1 + r2
    r_ma = low + float(rng.uniform(0.05, 0.95)) * (high - low)
    return tw.SourceRates(r_ma=r_ma, r_bar_1r=r1, r_bar_2r=r2)


def random_psd(rng, n, trace):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = a @ a.conj().T
    return d * (trace / np.real(np.trace(d)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
