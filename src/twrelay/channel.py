"""Channel generation and SVD decomposition into subchannel gains.

A system has two source nodes (n1 and n2 antennas) and one relay (n_r
antennas). Four complex channel matrices connect them: uplinks h1r, h2r
(node -> relay) and downlinks hr1, hr2 (relay -> node). Random
realizations are drawn i.i.d. circularly-symmetric complex Gaussian with
unit variance, the standard Rayleigh-fading model.

Decomposing each downlink H_ri = U * diag(omega) * V^H turns the relay's
broadcast into parallel scalar subchannels with gains
alpha_i(k) = omega(k)^2 / sigma_i^2, which is what every optimization
routine downstream operates on.

Both steps are batched, with the one-instance functions as their views.
draw_normals draws each trial's 4 n_r (n1 + n2) standard normals in one
call on the trial's own stream; cut_channels cuts them into the channel
stacks of one antenna split, so with n1 + n2 fixed every split of a
study reads the same normals. generate_channels is the one-trial,
one-split view. decompose_groups makes one SVD gufunc call per stack of
downlinks (LAPACK factors each matrix alone, so stacking keeps every
bit) and one pass over all rows for the gains; it returns them as
GainColumns, whose rows it drops, each with its reason, where decompose
raises. decompose_many is its one-group view and decompose its N=1 view.
"""

from __future__ import annotations

import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# The gufunc np.linalg.svd wraps: the same LAPACK loop and bits, without the
# wrapper's per-call cost, one call per stack.
from numpy.linalg import _umath_linalg

from .errors import RankZeroError
from .waterfill import _POSITIVE, _checked, _per_instance

__all__ = [
    "SystemConfig",
    "ChannelSet",
    "SubchannelGains",
    "GainColumns",
    "draw_normals",
    "cut_channels",
    "generate_channels",
    "decompose_groups",
    "decompose_many",
    "decompose",
    "synthetic_gains",
]

# Singular values below this fraction of the largest are treated as zero.
RANK_CUTOFF = 1e-12
_GAIN_RULE = "finite, strictly positive and sorted descending"
_SQRT2 = np.sqrt(2.0)  # a channel entry is (re + 1j * im) / _SQRT2, each part N(0, 1)


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, power budgets (W), noise variances (W) and RNG seed (an integer >= 0)."""

    n1: int
    n2: int
    n_r: int
    p1_max: float = 1.0
    p2_max: float = 1.0
    pr_max: float = 1.0
    sigma1_sq: float = 1.0
    sigma2_sq: float = 1.0
    sigmar_sq: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in (self.n1, self.n2, self.n_r)):
            raise ValueError("antenna counts must be integers >= 1")
        _checked((self.sigma1_sq, self.sigma2_sq, self.sigmar_sq), "noise variances", sys.float_info.min)
        _checked((self.p1_max, self.p2_max, self.pr_max), "power budgets")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class ChannelSet:
    """One realization of the four channel matrices.

    h1r, h2r are n_r x n_i uplinks; hr1, hr2 are n_i x n_r downlinks.
    """

    h1r: np.ndarray
    h2r: np.ndarray
    hr1: np.ndarray
    hr2: np.ndarray


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class SubchannelGains:
    """Per-direction subchannel gains for one channel realization.

    alpha1 / alpha2 are the gains of the relay->node-1 / relay->node-2
    downlinks: 1-D, nonempty, finite, strictly positive and sorted
    descending, one per nonzero singular value. v1 / v2 are the full
    n_r x n_r right singular-vector matrices that rebuild relay
    covariances from per-subchannel powers: finite, stored complex.
    Construction is the one place these properties are checked
    (ValueError, the numbers by waterfill._checked); the water-fill
    kernels take them as a precondition. All four are stored as read-only
    copies, so no edit of the caller's arrays can undo the checks or leave
    `pooled` stale.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.v1)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.v2) != shape:
            raise ValueError("v1 and v2 must both be n_r x n_r matrices")
        for name in ("alpha1", "alpha2", "v1", "v2"):
            rule = (_POSITIVE, ValueError, _GAIN_RULE) if name[0] == "a" else (None, ValueError, None, complex)
            value = np.array(_checked(getattr(self, name), name, *rule))
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        for name, alpha in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if alpha.ndim != 1 or not 0 < alpha.size <= shape[0]:
                raise ValueError(f"{name} must be a nonempty 1-D array of at most n_r gains")
            if not np.logical_and.reduce(alpha[:-1] >= alpha[1:]):
                raise ValueError(f"{name} must be {_GAIN_RULE}")

    @property
    def n_r(self) -> int:
        return self.v1.shape[0]

    @cached_property
    def pooled(self) -> np.ndarray:
        """Both gain lists merged and re-sorted descending (read-only)."""
        pooled = np.sort(np.concatenate([self.alpha1, self.alpha2]))[::-1]
        pooled.flags.writeable = False
        return pooled


def draw_normals(config: SystemConfig, trials) -> np.ndarray:
    """The standard normals behind the channel realizations of `trials`
    (trial indices), one row of 4 n_r (n1 + n2) per trial, (T, 4 n_r (n1 + n2)).

    Row t is the start of its own hash-derived RNG stream of (seed,
    trials[t]), so trials can be drawn in any order, in any batch (or in
    parallel) with identical results. The row holds h1r's real parts,
    then its imaginary parts, then those of h2r, hr1 and hr2 the same way,
    each matrix row by row: the eight draws of drawing each part apart, in
    that order, read the same numbers. With n1 + n2 fixed, every antenna
    split reads the same normals and only the cut differs (cut_channels).
    Raises ValueError unless every trial index is an integer >= 0, the
    seed's rule.
    """
    trials = list(trials)
    if not all(isinstance(trial, numbers.Integral) and trial >= 0 for trial in trials):
        raise ValueError("trial_index must be a nonnegative integer")
    normals = np.empty((len(trials), 4 * config.n_r * (config.n1 + config.n2)))
    for row, trial in zip(normals, trials):
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(int(trial),))
        np.random.default_rng(seq).standard_normal(out=row)
    return normals


@lru_cache(maxsize=256)
def _cut(n_r: int, n1: int, n2: int) -> np.ndarray:
    """Columns of a trial's normals holding the real parts (row 0) and the
    imaginary parts (row 1) of h1r, h2r, hr1 and hr2, flattened in that
    order, (2, 2 n_r (n1 + n2)), read-only."""
    sizes = [n_r * n1, n_r * n2] * 2
    starts = np.cumsum([0] + sizes[:-1]) * 2
    cut = np.concatenate([start + np.arange(2 * size).reshape(2, size) for start, size in zip(starts, sizes)], axis=1)
    cut.flags.writeable = False
    return cut


def cut_channels(normals: np.ndarray, n_r: int, n1: int) -> ChannelSet:
    """The channel stacks of antenna split (n1, n_total - n1) from draw_normals' rows.

    Returns a ChannelSet of stacks, one matrix per row of `normals`:
    h1r (T, n_r, n1), h2r (T, n_r, n_total - n1), hr1 (T, n1, n_r), hr2
    (T, n_total - n1, n_r), each entry CN(0, 1): a real and an imaginary
    part N(0, 1/2). Raises ValueError unless the rows hold 4 n_r n_total
    normals with 1 <= n1 < n_total.
    """
    normals = np.asarray(normals, dtype=float)
    n_total, extra = divmod(normals.shape[-1], 4 * n_r) if normals.ndim == 2 and n_r >= 1 else (0, 1)
    if extra or not 1 <= n1 < n_total:
        raise ValueError("normals must be draw_normals' rows, 4 n_r n_total each, with 1 <= n1 < n_total")
    n2, a, b = n_total - n1, n_r * n1, n_r * (n_total - n1)
    parts = normals.take(_cut(n_r, n1, n2), axis=-1)
    flat = (parts[:, 0] + 1j * parts[:, 1]) / _SQRT2
    return ChannelSet(h1r=flat[:, :a].reshape(-1, n_r, n1), h2r=flat[:, a : a + b].reshape(-1, n_r, n2),
                      hr1=flat[:, a + b : 2 * a + b].reshape(-1, n1, n_r), hr2=flat[:, 2 * a + b :].reshape(-1, n2, n_r))


def generate_channels(config: SystemConfig, trial_index: int) -> ChannelSet:
    """Draw one channel realization, deterministic in (seed, trial_index).

    The one-trial, one-split view of draw_normals and cut_channels: entries
    are i.i.d. CN(0, 1), and each trial gets its own hash-derived RNG stream.
    """
    stacks = cut_channels(draw_normals(config, (trial_index,)), config.n_r, config.n1)
    return ChannelSet(stacks.h1r[0], stacks.h2r[0], stacks.hr1[0], stacks.hr2[0])


class GainColumns(Sequence):
    """N instances' decompositions as columns: alpha1, alpha2 (N, n_r), each
    row's gains zero-padded; counts1, counts2 (N,), the gains a row holds;
    vh1, vh2 (N, n_r, n_r), the right singular vectors V^H; reasons (N,),
    None or why the row was dropped (the rest of the row meaningless).
    Item i is the instance's SubchannelGains, built on access, or None."""

    __slots__ = ("alpha1", "alpha2", "counts1", "counts2", "vh1", "vh2", "reasons")

    def __init__(self, *columns) -> None:
        self.alpha1, self.alpha2, self.counts1, self.counts2, self.vh1, self.vh2, self.reasons = columns

    def __len__(self) -> int:
        return len(self.reasons)

    def __getitem__(self, i: int) -> SubchannelGains | None:
        if self.reasons[i] is not None:
            return None
        return SubchannelGains(alpha1=self.alpha1[i, : self.counts1[i]], alpha2=self.alpha2[i, : self.counts2[i]],
                               v1=self.vh1[i].conj().T, v2=self.vh2[i].conj().T)

    def take(self, rows) -> GainColumns:
        """The columns of `rows` (indices), in that order."""
        return GainColumns(*(getattr(self, name).take(rows, axis=0) for name in self.__slots__))

    @staticmethod
    def joined(parts: list) -> GainColumns:
        """The parts' rows as one set of columns, in order; every part shares n_r."""
        return GainColumns(*(np.concatenate([getattr(part, name) for part in parts]) for name in GainColumns.__slots__))


_RANK_ZERO = "downlink channel has no nonzero singular value"
_NOT_CONVERGED = "SVD did not converge"


# A failed SVD comes out NaN, where np.linalg.svd raises; a gain that over- or underflows, inf or 0.
@np.errstate(all="ignore")
def _decomposed(pairs: list, sigma_sq: np.ndarray) -> GainColumns:
    """decompose_groups on checked stacks (hr1, hr2); sigma_sq holds the noise
    variances of direction 1 and 2 down its first axis, (2, 1, 1) or (2, N, 1)."""
    svds = [[_umath_linalg.svd_f(h, signature="D->DdD") for h in pair] for pair in pairs]
    n, n_r = sum(len(hr1) for hr1, _ in pairs), pairs[0][0].shape[-1]
    # Both directions' singular values, zero-padded to n_r, (2, N, n_r).
    s, start = np.zeros((2, n, n_r)), 0
    for (_, s1, _), (_, s2, _) in svds:
        end = start + len(s1)
        s[0, start:end, : s1.shape[1]], s[1, start:end, : s2.shape[1]] = s1, s2
        start = end
    # A failed SVD's NaN row keeps every value, so its NaN gains break the gain rule too.
    kept = ~(s < RANK_CUTOFF * s[..., :1])
    alpha = np.where(kept, s**2 / sigma_sq, 0.0)
    counts = np.add.reduce(kept, axis=-1)
    reasons = np.empty(n, dtype=object)  # None
    fine = (alpha > 0.0) & (alpha < np.inf)  # a kept gain that is inf or 0 (or NaN) breaks the gain rule
    if np.count_nonzero(fine) < np.add.reduce(counts, axis=None):
        broken = np.logical_or.reduce(kept & ~fine, axis=-1)
        rank_zero, failed = ~(s[..., 0] > 0.0), np.isnan(s[..., 0])
        # Each row's reason is its first failure in the order decompose raises them: the last assignment wins.
        for rows, reason in ((broken[1], f"alpha2 must be {_GAIN_RULE}"), (broken[0], f"alpha1 must be {_GAIN_RULE}"),
                             (rank_zero[1], _RANK_ZERO), (failed[1], _NOT_CONVERGED),
                             (rank_zero[0], _RANK_ZERO), (failed[0], _NOT_CONVERGED)):
            reasons[rows] = reason
    vh1, vh2 = ([svd[d][2] for svd in svds] for d in (0, 1))
    vh1, vh2 = (vh[0] if len(vh) == 1 else np.concatenate(vh) for vh in (vh1, vh2))
    return GainColumns(alpha[0], alpha[1], counts[0], counts[1], vh1, vh2, reasons)


def decompose_groups(groups, sigma1_sq, sigma2_sq) -> GainColumns:
    """decompose_many of several groups of stacked downlinks at once.

    Each group is a pair (hr1, hr2) of decompose_many's stacks; the groups
    share n_r but may differ in n1 and n2 (a study's antenna splits). The
    noise variances are one for all, or one per instance of all groups.
    Returns the groups' rows as one GainColumns, in group order, each row
    bit for bit decompose_many's of its group alone: one SVD call per group
    and direction, and one pass over all rows for the gains and the
    reasons. Raises as decompose_many does, for the whole call, and
    ValueError if two groups differ in n_r.
    """
    pairs = [[_checked(h, name, None, dtype=complex) for name, h in zip(("hr1", "hr2"), group)] for group in groups]
    for hr1, hr2 in pairs:
        if not (hr1.ndim == hr2.ndim == 3 and len(hr1) == len(hr2) and hr1.shape[2] == hr2.shape[2]
                and min(hr1.shape[1:] + hr2.shape[1:]) >= 1):
            raise ValueError("hr1 and hr2 must be 3-D stacks (N, n_i, n_r) with the same N and n_r, each n >= 1")
    if not pairs or len({hr1.shape[2] for hr1, _ in pairs}) > 1:
        raise ValueError("the groups must be nonempty and share n_r")
    n = sum(len(hr1) for hr1, _ in pairs)
    sigma_sq = [_per_instance(sigma, n, "noise variances", sys.float_info.min) for sigma in (sigma1_sq, sigma2_sq)]
    return _decomposed(pairs, np.array(sigma_sq)[..., np.newaxis])


def decompose_many(hr1, hr2, sigma1_sq, sigma2_sq) -> GainColumns:
    """SVD-decompose N instances' downlinks into subchannel gains, as columns.

    hr1, hr2 are stacked downlinks, (N, n1, n_r) and (N, n2, n_r); the noise
    variances sigma1_sq, sigma2_sq (watts) are one for all, or one per
    instance. One SVD call per stack: LAPACK factors each matrix alone,
    so row i is bit for bit decompose of instance i, or None with the
    reason decompose raises (rank zero, or a gain that overflows to inf or
    underflows to 0 and so breaks the gain rule). Raises ValueError for
    the whole call on a non-finite entry of hr1, then hr2, on stacks of
    other shapes, and on noise variances that break SystemConfig's noise
    rule or are neither one value nor one per instance. The one-group
    view of decompose_groups.
    """
    return decompose_groups([(hr1, hr2)], sigma1_sq, sigma2_sq)


def decompose(channels: ChannelSet, config: SystemConfig) -> SubchannelGains:
    """SVD-decompose both downlinks into sorted subchannel gains.

    The N=1 view of decompose_many. Raises RankZeroError if either
    direction is numerically rank zero (caller should abort the trial),
    and ValueError if an entry of hr1, then hr2, is not finite
    (waterfill._checked), a shape is wrong or a gain overflows or underflows.
    """
    hr1, hr2 = (_checked(getattr(channels, name), name, None, dtype=complex) for name in ("hr1", "hr2"))
    for name, mat, rows in (("hr1", hr1, config.n1), ("hr2", hr2, config.n2)):
        if mat.shape != (rows, config.n_r):
            raise ValueError(f"{name} has shape {mat.shape}, expected {(rows, config.n_r)}")
    sigma_sq = np.array([config.sigma1_sq, config.sigma2_sq], dtype=float).reshape(2, 1, 1)
    columns = _decomposed([(hr1[np.newaxis], hr2[np.newaxis])], sigma_sq)
    reason = columns.reasons[0]
    if reason is not None:
        raise {_RANK_ZERO: RankZeroError, _NOT_CONVERGED: np.linalg.LinAlgError}.get(reason, ValueError)(reason)
    return columns[0]


def synthetic_gains(alpha1, alpha2) -> SubchannelGains:
    """Build SubchannelGains directly from gain lists in any order (unit noise).

    Useful for hand-constructed instances and tests: the unitary factors
    are identities, so relay covariances come out diagonal. Raises
    ValueError as SubchannelGains does, by its gain rule.
    """
    a1, a2 = (np.sort(_checked(alpha, name, _POSITIVE, rule=_GAIN_RULE))[::-1]
              for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)))
    eye = np.eye(max(a1.size, a2.size), dtype=complex)
    return SubchannelGains(alpha1=a1, alpha2=a2, v1=eye, v2=eye)
