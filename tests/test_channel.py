"""Channel generation and SVD decomposition tests."""

import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import twrelay as tw


def _flat(channels):
    return np.concatenate([m.ravel() for m in (channels.h1r, channels.h2r, channels.hr1, channels.hr2)])


def test_same_seed_and_trial_is_bitwise_identical():
    cfg = tw.SystemConfig(n1=3, n2=2, n_r=4, seed=42)
    a = tw.generate_channels(cfg, 7)
    b = tw.generate_channels(cfg, 7)
    for x, y in zip((a.h1r, a.h2r, a.hr1, a.hr2), (b.h1r, b.h2r, b.hr1, b.hr2)):
        assert np.array_equal(x, y)


def test_distinct_trials_and_seeds_differ():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2, seed=1)
    assert not np.array_equal(tw.generate_channels(cfg, 0).h1r, tw.generate_channels(cfg, 1).h1r)
    cfg2 = tw.SystemConfig(n1=2, n2=2, n_r=2, seed=2)
    assert not np.array_equal(tw.generate_channels(cfg, 0).h1r, tw.generate_channels(cfg2, 0).h1r)


def test_unit_variance_over_many_draws():
    cfg = tw.SystemConfig(n1=50, n2=50, n_r=50, seed=3)
    entries = _flat(tw.generate_channels(cfg, 0))
    assert entries.size == 10_000
    assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.05
    # Circular symmetry: real/imag parts each carry half the variance.
    assert abs(np.var(entries.real) - 0.5) < 0.05


def test_streams_statistically_independent():
    cfg = tw.SystemConfig(n1=50, n2=50, n_r=50, seed=3)
    x = _flat(tw.generate_channels(cfg, 0))
    y = _flat(tw.generate_channels(cfg, 1))
    for a, b in ((x.real, y.real), (x.imag, y.imag), (x.real, y.imag)):
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.1


def test_trial_index_must_be_nonnegative():
    cfg = tw.SystemConfig(n1=1, n2=1, n_r=1)
    with pytest.raises(ValueError):
        tw.generate_channels(cfg, -1)


def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer():
    for bad in (-1, -5, 1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="seed"):
            tw.SystemConfig(n1=1, n2=1, n_r=1, seed=bad)
    for good in (0, 7, np.int64(7), 2**63):
        tw.generate_channels(tw.SystemConfig(n1=1, n2=1, n_r=1, seed=good), 0)


def test_config_validation():
    with pytest.raises(ValueError):
        tw.SystemConfig(n1=0, n2=1, n_r=1)
    with pytest.raises(ValueError):
        tw.SystemConfig(n1=1, n2=1, n_r=1, sigma1_sq=0.0)
    with pytest.raises(ValueError):
        tw.SystemConfig(n1=1, n2=1, n_r=1, p1_max=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            tw.SystemConfig(n1=1, n2=1, n_r=1, sigmar_sq=bad)
        with pytest.raises(ValueError):
            tw.SystemConfig(n1=1, n2=1, n_r=1, pr_max=bad)
        with pytest.raises(ValueError):
            tw.SystemConfig(n1=1, n2=1, n_r=1, p2_max=bad)
    # Subnormal noise variances are rejected; the smallest normal float is not.
    for name in ("sigma1_sq", "sigma2_sq", "sigmar_sq"):
        for bad in (1e-320, 1e-308):
            with pytest.raises(ValueError):
                tw.SystemConfig(n1=1, n2=1, n_r=1, **{name: bad})
        tw.SystemConfig(n1=1, n2=1, n_r=1, **{name: sys.float_info.min})


def _channels_with_downlinks(hr1, hr2, n_r):
    n1, n2 = hr1.shape[0], hr2.shape[0]
    return tw.ChannelSet(
        h1r=np.zeros((n_r, n1), complex) + 1.0,
        h2r=np.zeros((n_r, n2), complex) + 1.0,
        hr1=hr1.astype(complex),
        hr2=hr2.astype(complex),
    )


def test_decompose_identity():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2)
    ch = _channels_with_downlinks(np.eye(2), np.eye(2), 2)
    gains = tw.decompose(ch, cfg)
    assert_allclose(gains.alpha1, [1.0, 1.0], rtol=1e-14)
    assert_allclose(gains.alpha2, [1.0, 1.0], rtol=1e-14)


def test_decompose_diagonal_squares_singular_values():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2)
    ch = _channels_with_downlinks(np.diag([2.0, 1.0]), np.eye(2), 2)
    gains = tw.decompose(ch, cfg)
    assert_allclose(gains.alpha1, [4.0, 1.0], rtol=1e-14)


def test_decompose_scales_by_noise_variance():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2, sigma1_sq=4.0)
    ch = _channels_with_downlinks(np.diag([2.0, 1.0]), np.eye(2), 2)
    gains = tw.decompose(ch, cfg)
    assert_allclose(gains.alpha1, [1.0, 0.25], rtol=1e-14)


def test_decompose_overflowing_gain_rejected_without_warning():
    # 20^2 / 1e-307 overflows: the gain comes out inf and SubchannelGains
    # rejects it, with no RuntimeWarning on the way.
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2, sigma1_sq=1e-307)
    ch = _channels_with_downlinks(np.diag([20.0, 1.0]), np.eye(2), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha1"):
            tw.decompose(ch, cfg)


def test_decompose_reconstruction_and_unitarity(rng):
    for _ in range(25):
        n1, n2, n_r = rng.integers(1, 5, size=3)
        cfg = tw.SystemConfig(n1=int(n1), n2=int(n2), n_r=int(n_r), seed=int(rng.integers(1e6)))
        ch = tw.generate_channels(cfg, 0)
        gains = tw.decompose(ch, cfg)
        pairs = (
            (gains.alpha1, gains.v1, ch.hr1, cfg.sigma1_sq),
            (gains.alpha2, gains.v2, ch.hr2, cfg.sigma2_sq),
        )
        for alpha, v, h, sigma_sq in pairs:
            assert np.max(np.abs(v.conj().T @ v - np.eye(cfg.n_r))) < 1e-10
            # Rebuild H from its SVD pieces: the singular values are
            # omega = sqrt(alpha * sigma^2) and U comes back from H V / omega.
            omega = np.sqrt(alpha * sigma_sq)
            u = (h @ v)[:, : omega.size] / omega
            rebuilt = u @ np.diag(omega) @ v[:, : omega.size].conj().T
            err = np.linalg.norm(rebuilt - h) / np.linalg.norm(h)
            assert err < 1e-10
            assert np.all(np.diff(alpha) <= 0.0)
            assert np.all(alpha > 0.0)
            singular = np.linalg.svd(h, compute_uv=False)[: omega.size]
            assert_allclose(alpha, singular**2 / sigma_sq, rtol=1e-14)


def test_rank_deficient_channel_drops_zero_modes():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2)
    col = np.array([[1.0], [1.0]])
    ch = _channels_with_downlinks(col @ col.T, np.eye(2), 2)  # rank one
    gains = tw.decompose(ch, cfg)
    assert gains.alpha1.size == 1
    assert_allclose(gains.alpha1, [4.0], rtol=1e-12)


def test_rank_zero_raises():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=2)
    ch = _channels_with_downlinks(np.zeros((2, 2)), np.eye(2), 2)
    with pytest.raises(tw.RankZeroError):
        tw.decompose(ch, cfg)


def test_decompose_validates_shapes():
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3)
    ch = _channels_with_downlinks(np.eye(2), np.eye(2), 2)  # n_r mismatch
    with pytest.raises(ValueError):
        tw.decompose(ch, cfg)
    for bad in (np.nan, np.inf):
        hr1 = np.ones((2, 3))
        hr1[1, 2] = bad
        with pytest.raises(ValueError, match="^hr1 must be finite$"):
            tw.decompose(_channels_with_downlinks(hr1, np.ones((2, 3)), 3), cfg)


def test_synthetic_gains_identity_factors():
    gains = tw.synthetic_gains([1.0, 0.5], [2.0])
    assert gains.n_r == 2
    assert_allclose(gains.pooled, [2.0, 1.0, 0.5])
    assert np.array_equal(gains.v1, np.eye(2))
    assert np.array_equal(gains.v2, np.eye(2))


def test_malformed_gains_rejected_at_construction():
    eye = np.eye(2)
    bad_lists = ([], [0.0], [1.0, -0.5], [np.nan, 1.0], [np.inf], [[1.0, 0.5]])
    for bad in bad_lists:
        with pytest.raises(ValueError):
            tw.synthetic_gains(bad, [1.0])
        with pytest.raises(ValueError):
            tw.synthetic_gains([1.0], bad)
        with pytest.raises(ValueError):
            tw.SubchannelGains(alpha1=bad, alpha2=[1.0], v1=eye, v2=eye)
        with pytest.raises(ValueError):
            tw.SubchannelGains(alpha1=[1.0], alpha2=bad, v1=eye, v2=eye)
    # synthetic_gains sorts its input; direct construction must be given order.
    assert_allclose(tw.synthetic_gains([0.5, 1.0], [1.0]).alpha1, [1.0, 0.5])
    with pytest.raises(ValueError):
        tw.SubchannelGains(alpha1=[0.5, 1.0], alpha2=[1.0], v1=eye, v2=eye)
    # More gains than relay antennas, and V factors that are not n_r x n_r.
    with pytest.raises(ValueError):
        tw.SubchannelGains(alpha1=[3.0, 2.0, 1.0], alpha2=[1.0], v1=eye, v2=eye)
    for v1, v2 in ((eye, np.eye(3)), (eye[:1], eye[:1]), (np.ones(2), np.ones(2))):
        with pytest.raises(ValueError):
            tw.SubchannelGains(alpha1=[1.0], alpha2=[1.0], v1=v1, v2=v2)
    gains = tw.SubchannelGains(alpha1=[2.0, 1.0], alpha2=[1.0], v1=eye, v2=eye)
    assert gains.n_r == 2 and gains.alpha1.dtype == float


def test_gains_are_read_only_copies_of_the_callers_arrays():
    alpha1, alpha2, eye = np.array([2.0, 1.0]), np.array([1.0]), np.eye(2, dtype=complex)
    gains = tw.SubchannelGains(alpha1=alpha1, alpha2=alpha2, v1=eye, v2=eye)
    pooled = gains.pooled.copy()
    alpha1[0], eye[0, 0] = -3.0, 5.0  # the caller's arrays stay its own
    assert gains.alpha1.tolist() == [2.0, 1.0] and gains.v1[0, 0] == 1.0
    assert np.array_equal(gains.pooled, pooled)
    for name in ("alpha1", "alpha2", "v1", "v2", "pooled"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(gains, name)[0] = 0.5
    # decompose's transposed V factors keep their memory layout.
    cfg = tw.SystemConfig(n1=2, n2=2, n_r=3, seed=7)
    decomposed = tw.decompose(tw.generate_channels(cfg, 0), cfg)
    assert decomposed.v1.flags.f_contiguous and not decomposed.v1.flags.writeable


def test_config_rejects_antenna_counts_that_are_not_integers_of_at_least_one():
    # The seed's integer rule: a float count would fail only later, as a TypeError in generate_channels.
    for bad in (1.5, 2.0, 0, -1, "2", None):
        for counts in ({"n1": bad, "n2": 1, "n_r": 1}, {"n1": 1, "n2": bad, "n_r": 1}, {"n1": 1, "n2": 1, "n_r": bad}):
            with pytest.raises(ValueError, match="^antenna counts must be integers >= 1$"):
                tw.SystemConfig(**counts)
    tw.generate_channels(tw.SystemConfig(n1=np.int64(2), n2=1, n_r=3), 0)
