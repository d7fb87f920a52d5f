"""Multiple-access phase rates and the default source strategy.

In the first time slot both source nodes transmit simultaneously to the
relay. Given transmit covariances D1, D2 the relevant log-det functionals
are the MA sum-rate

    r_ma = ln det(I + (H1r D1 H1r^H + H2r D2 H2r^H) / sigma_r^2)

and the individual uplink rates r_bar_ir with only one term inside. All
rates are in nats. They depend on H and sigma_r only through H / sigma_r,
so the module works in noise units: each uplink is divided by sigma_r where
it enters (every bit kept at sigma_r^2 = 1), and a rate is ln det(I + H D H^H)
on it, with the covariances and budgets in watts.

The relay optimizer needs only the three rates (SourceRates), so it works
for arbitrary source covariances; callers can build a SourceStrategy, the
rates together with the covariances that induce them, from any PSD pair
via strategy_from_covariances.

max_ma_strategies provides the simulation default, the sum-rate-maximizing
pair, by cyclic best-response water-filling (Yu, Rhee, Boyd & Cioffi,
IEEE T-IT 2004) over N stacked instances of equal antenna counts at once,
and returns them as columns, a SourceStrategies whose item i is a
SourceStrategy built on access, or None for a dropped instance;
max_ma_strategy is its N=1 view. Both are one-group views of the engine,
max_ma_strategy_groups, which runs groups of stacks that share n_r but
differ in n1 and n2 (a study's antenna splits) in lockstep. Every step acts
on each matrix alone and each instance leaves the stack at its own
converged sweep, so a result is the same, bit for bit, in any batch and
any grouping.

Within a half-sweep, the steps whose operands have a group's own shape run
per group, on exactly that shape: H D H^H, the whitening solve, G^H G and
its eigh, and the covariance rebuild V diag(p) V^H; and, for the converged
pairs, H D H^H. OpenBLAS and LAPACK bits depend on an operand's shape, so
none of these is zero-padded. The rest runs once over all groups' rows: the
Hermitian part of I + H D H^H and its n_r x n_r Cholesky, the water-fill
(waterfill's row-wise cores on the eigenvalues zero-padded to the widest
group; a padded mode has gain 0 and gets no power), the log-det objective,
the convergence and drop-out bookkeeping, and the converged pairs'
n_r x n_r log-dets. The objective adds each row's terms one after another
(waterfill._sum), so trailing zero terms keep a row's sum at any width. On
one group, the sweeps join no stacks. The sweeps call the LAPACK gufuncs
behind np.linalg's cholesky, solve and eigh directly
(numpy.linalg._umath_linalg), with the same bits and none of the wrappers'
per-call cost; a factorization that fails comes out NaN rather than raising.

A sweep's sum rate comes from node 2's best response, whose whitening
matrix Z2 = I + H1 D1 H1^H (H1 = H1r / sigma_r) is already factored as
L2 L2^H:

    r_ma = 2 sum ln diag(L2) + sum_k log1p(lambda_k p_k)

over node 2's whitened eigenvalues lambda_k and powers p_k, with no third
factorization; an instance converges when a sweep gains less than
SWEEP_GAIN_TOL nats. Best responses are V diag(p) V^H with p >= 0, PSD by
construction, so the engine does not PSD-check them: the PSD rule is
checked only by strategy_from_covariances, the one entry point that takes
covariances from outside. The engine's one overflow rule is its entry
bound: an instance leaves the stack on entry if its uplinks in noise units
have tr(H^H H) past float max / 4, or tr(H^H H) times a budget passes
(float max / 4) / max(sigma_r^2, 1); above unit noise that is the "alone"
clause, for D is in watts. It bounds every later H D H^H and D. The bound
never multiplies by 4 / float max, which underflows traces in noise units
to 0 past sigma_r^2 ~ 1e50. An instance also leaves the stack when its
interference-plus-noise matrix does not factor or its rates come out
inconsistent. Uplinks, budgets, noise variances and rates are converted at
entry through waterfill._checked, each by its own rule.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
# The gufuncs np.linalg.cholesky, solve and eigh wrap: the same LAPACK loops
# and bits, without the wrapper's type dispatch, errstate and result
# wrapping (3-12 us a call; a sweep makes several per group).
from numpy.linalg import _umath_linalg

from .channel import ChannelSet, SystemConfig
from .errors import InvalidStrategyError, NonPSDError, NoConvergenceError
from .waterfill import _checked, _level, _per_instance, _powers, _prepared, _sum

__all__ = [
    "SourceRates",
    "SourceStrategy",
    "SourceStrategies",
    "logdet_identity_plus",
    "max_ma_strategy",
    "max_ma_strategies",
    "max_ma_strategy_groups",
    "strategy_from_covariances",
]

PSD_TOL = 1e-9
SWEEP_GAIN_TOL = 1e-10
MAX_SWEEPS = 500

_STOPPED = "iterative water-filling stopped: "
_SINGULAR = (
    _STOPPED + "the interference-plus-noise matrix "
    "sigma_r^2 I + H D H^H is numerically singular"
)
_UNRELIABLE = (
    _STOPPED + "its rates break "
    "max(r_bar_1r, r_bar_2r) <= r_ma <= r_bar_1r + r_bar_2r (log-dets lost to round-off)"
)
_OVERFLOW = "the MA-phase rates overflow: H D H^H / sigma_r^2 is beyond the float range"


@dataclass(frozen=True)
class SourceRates:
    """MA sum rate and the two single-user uplink rates (nats).

    Rates must be finite and not below -1e-12 (round-off of a zero rate);
    they are stored as floats clamped to zero.
    """

    r_ma: float
    r_bar_1r: float
    r_bar_2r: float

    def __post_init__(self) -> None:
        rates = _valid_rates([self.r_ma, self.r_bar_1r, self.r_bar_2r]).tolist()
        for name, rate in zip(("r_ma", "r_bar_1r", "r_bar_2r"), rates):
            object.__setattr__(self, name, rate)


def _valid_rates(rates) -> np.ndarray:
    """Rates r_ma, r_bar_1r, r_bar_2r down the first axis, (3,) or (3, N), by
    SourceRates' rule: floats clamped to zero. Raises InvalidStrategyError
    unless every rate is finite and not below -1e-12 (waterfill._checked)."""
    rates = _checked(rates, "source rates", -1e-12, InvalidStrategyError, "finite and nonnegative")
    return np.maximum(rates, 0.0)


@dataclass(frozen=True, eq=False)  # arrays inside: compared and hashed by identity
class SourceStrategy(SourceRates):
    """Source covariances (watts) and the rates they induce (nats).

    `sweeps` is the sweep at which max_ma_strategies converged for this
    pair and `last_gain` that sweep's sum-rate gain in nats (below
    SWEEP_GAIN_TOL); a pair from strategy_from_covariances has 0 and NaN.
    """

    d1: np.ndarray
    d2: np.ndarray
    sweeps: int = 0
    last_gain: float = math.nan

    # Not SourceRates' value equality, which would compare the rates alone.
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class SourceStrategies(Sequence):
    """N instances' max_ma_strategies results as columns: rates (3, N), r_ma,
    r_bar_1r, r_bar_2r by SourceRates' rule (_valid_rates); d1, d2
    (N, n_i, n_i); sweeps, last_gain (N,); reasons (N,), None or why the
    row was dropped (its rates NaN, the drop signal, the rest meaningless)."""

    __slots__ = ("rates", "d1", "d2", "sweeps", "last_gain", "reasons")

    def __init__(self, *columns) -> None:
        self.rates, self.d1, self.d2, self.sweeps, self.last_gain, self.reasons = columns

    def __len__(self) -> int:
        return len(self.reasons)

    def __getitem__(self, i: int) -> SourceStrategy | None:
        if self.reasons[i] is not None:
            return None
        r_ma, r_bar_1r, r_bar_2r = self.rates[:, i].tolist()
        return SourceStrategy(d1=self.d1[i].copy(), d2=self.d2[i].copy(), r_ma=r_ma, r_bar_1r=r_bar_1r,
                              r_bar_2r=r_bar_2r, sweeps=int(self.sweeps[i]), last_gain=float(self.last_gain[i]))


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _hermitian(a: np.ndarray) -> np.ndarray:
    # Halved first (exact but for subnormals): a + a^H may pass the float maximum.
    half = 0.5 * a
    return half + _ct(half)


def _joined(parts: list) -> np.ndarray:
    """The groups' row blocks as one stack, in order; a lone block is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _row_slices(counts: list) -> list:
    """Each group's rows in the joined stack of groups with these row counts."""
    return [slice(end - count, end) for count, end in zip(counts, accumulate(counts))]


def _cholesky(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of Hermitian matrices, and which failed to factor.

    A matrix that fails gets the identity as a placeholder factor. Each
    factor has the bits of its matrix factored alone: the gufunc factors
    each matrix by its own LAPACK call and fills a failed one with NaN.
    """
    with np.errstate(all="ignore"):  # as np.linalg.cholesky, which raises on the NaN
        chol = _umath_linalg.cholesky_lo(stack)
    failed = np.isnan(chol[:, 0, 0])
    if np.count_nonzero(failed):
        chol[failed] = np.eye(stack.shape[-1])
    return chol, failed


def _logdet_identity_plus(herm: np.ndarray) -> np.ndarray:
    """ln det(I + S) of each Hermitian PSD matrix of a stack, (N, n, n) -> (N,),
    given the Hermitian parts herm.

    Cholesky of I + S for stability; an instance whose factorization fails
    near the PSD boundary falls back to clipped eigenvalues.
    """
    chol, failed = _cholesky(np.eye(herm.shape[-1]) + herm)
    logdet = 2.0 * np.add.reduce(np.log(chol.diagonal(0, -2, -1).real), axis=-1)
    if np.count_nonzero(failed):
        eig = np.clip(np.linalg.eigvalsh(herm[failed]), 0.0, None)
        logdet[failed] = np.add.reduce(np.log1p(eig), axis=-1)
    return logdet


def logdet_identity_plus(s: np.ndarray) -> float:
    """ln det(I + S) for Hermitian PSD S.

    Cholesky of I + S for stability; falls back to clipped eigenvalues if
    the factorization fails near the PSD boundary.
    """
    return float(_logdet_identity_plus(_hermitian(np.asarray(s)[np.newaxis]))[0])


def _over_sigma(h: np.ndarray, sigma_r) -> np.ndarray:
    """H / sigma_r of C-contiguous uplinks: each entry's real and imaginary part over sigma_r (broadcast)."""
    return (h.view(float) / sigma_r).view(complex)


def _pair_rates(pairs: list) -> np.ndarray:
    """r_ma, r_bar_1r, r_bar_2r of each covariance pair of the groups, (3, N).

    `pairs` holds the stacks (h1, d1, h2, d2) of each group, maybe empty: h_i
    (N_g, n_r, n_i) in noise units (H / sigma_r) and d_i (N_g, n_i, n_i) in
    watts, so each rate is ln det(I + H D H^H). The caller vouches that the
    pairs are PSD and that their H D H^H is within a quarter of the float
    range. The n_r x n_r log-dets run once over all groups.
    """
    s1, s2 = (np.concatenate([pair[i] @ _hermitian(pair[i + 1]) @ _ct(pair[i]) for pair in pairs]) for i in (0, 2))
    # S1 + S2, S1 and S2 in one call; each matrix is factored alone.
    return _logdet_identity_plus(_hermitian(np.concatenate((s1 + s2, s1, s2)))).reshape(3, -1)


def strategy_from_covariances(d1, d2, channels: ChannelSet, sigmar_sq: float) -> SourceStrategy:
    """Package arbitrary PSD covariances with their recomputed rates.

    The one entry point for covariances from outside, and the one owner of
    the PSD rule. In this order, raises ValueError if the relay noise
    variance breaks the noise rule, the uplinks, d1, then d2 hold an entry
    that is not finite, or a covariance has the wrong shape; NonPSDError,
    naming d1 before d2, if a covariance has an eigenvalue below -PSD_TOL
    times its largest magnitude; and ValueError if the rates overflow
    (H D H^H / sigma_r^2 beyond the float range), the uplinks taken into
    noise units as the engine takes them.
    """
    sig = _checked(sigmar_sq, "the relay noise variance", sys.float_info.min)
    h1r, h2r = (np.ascontiguousarray(_checked(h, "uplinks", None, dtype=complex)) for h in (channels.h1r, channels.h2r))
    d1, d2 = (_checked(d, name, None, dtype=complex) for name, d in (("d1", d1), ("d2", d2)))
    for name, d, h in (("d1", d1, h1r), ("d2", d2, h2r)):
        if d.shape != (h.shape[1],) * 2:
            raise ValueError(f"{name} has shape {d.shape}, expected {(h.shape[1],) * 2}")
    try:
        with np.errstate(over="raise", invalid="raise"):  # inf - inf or 0 * inf follow an overflow
            for name, d in (("d1", d1), ("d2", d2)):
                eig = np.linalg.eigvalsh(_hermitian(d))
                if eig.min() < -PSD_TOL * np.abs(eig).max():
                    raise NonPSDError(f"{name} has an eigenvalue below {-PSD_TOL} times its largest magnitude")
            g1, g2 = (_over_sigma(h, np.sqrt(sig))[np.newaxis] for h in (h1r, h2r))
            r_ma, r_bar_1r, r_bar_2r = _pair_rates([(g1, d1[np.newaxis], g2, d2[np.newaxis])])[:, 0]
    except FloatingPointError:
        raise ValueError(_OVERFLOW) from None
    return SourceStrategy(d1=d1, d2=d2, r_ma=r_ma, r_bar_1r=r_bar_1r, r_bar_2r=r_bar_2r)


def _best_response(hs: list, z: np.ndarray, p_max: np.ndarray, objective: bool = False,
                   rows: tuple = (slice(None),)) -> tuple:
    """Single-user water-filling of each row against fixed interference-plus-noise.

    Maximizes ln det(Z + H D H^H) over Tr(D) <= p_max by water-filling over
    the eigenmodes of the whitened channel G = L^{-1} H, where Z = L L^H.
    Takes the groups' uplink stacks hs in noise units (H / sigma_r),
    (N_g, n_r, n_g) each, and over their rows in order (group g's are
    rows[g]; one group by default) z (N, n_r, n_r) Hermitian, I plus the
    other node's H D H^H, and p_max (N,) in watts. Returns the groups' D stacks,
    (N_g, n_g, n_g); with `objective`, the maximum
    ln det(Z + H D H^H) = 2 sum ln diag(L) + sum_k log1p(lambda_k p_k) over
    G's eigenvalues lambda_k and the powers p_k of D (N,), else None; and
    which rows' Z is numerically singular (their D and ln det are
    meaningless).
    """
    chol, singular = _cholesky(z)
    modes = []  # per group, on its own shapes: G = L^{-1} H and the eigenmodes of G^H G
    for r, h in zip(rows, hs):
        g = _umath_linalg.solve(chol[r], h)
        modes.append(_umath_linalg.eigh_lo(_hermitian(_ct(g) @ g)))
    if len(hs) == 1:
        eigvals = modes[0][0][:, ::-1]  # descending
    else:  # zero-padded to the widest group; a padded mode has gain 0
        eigvals = np.zeros((len(z), max(h.shape[2] for h in hs)))
        for r, (w, _) in zip(rows, modes):
            eigvals[r, :w.shape[1]] = w[:, ::-1]
    # Active: above 1e-12 of the row's top mode and above 1 / float max (1 / gain past the float range).
    active = eigvals > np.maximum(eigvals[:, :1] * 1e-12, 1.0 / sys.float_info.max)
    # Water-fill each row over its active modes, a descending prefix; the
    # others are padding (gain 0). The budgets were checked at entry.
    prepared = _prepared(np.where(active, eigvals, 0.0))
    level = _level(prepared, p_max)
    # Zero effective channel (top eigenvalue not positive): its level is
    # +inf; it gets zero powers here, then spends the budget uniformly
    # (that has no effect on any rate, but keeps Tr(D) = p_max).
    flat = ~active[:, 0]
    any_flat = np.count_nonzero(flat)
    if any_flat:
        level[flat] = 0.0
    powers = _powers(prepared[0], level)
    ds = []
    for r, (_, v) in zip(rows, modes):
        v = v[..., ::-1]
        ds.append((v * powers[r, np.newaxis, :v.shape[-1]]) @ _ct(v))
    if any_flat:
        for r, d in zip(rows, ds):
            n_i, f = d.shape[-1], flat[r]
            d[f] = (p_max[r][f, np.newaxis, np.newaxis] / n_i) * np.eye(n_i)
            powers[r][f, :n_i] = p_max[r][f, np.newaxis] / n_i
    if not objective:
        return ds, None, singular
    logdet = 2.0 * np.add.reduce(np.log(chol.diagonal(0, -2, -1).real), axis=-1)
    return ds, logdet + _sum(np.log1p(eigvals * powers)), singular


def max_ma_strategy_groups(groups) -> list[SourceStrategies]:
    """max_ma_strategies of several groups at once, in lockstep.

    Each group is a tuple (h1r, h2r, p1_max, p2_max, sigmar_sq) of
    max_ma_strategies' arguments; the groups' uplinks share n_r but may
    differ in n1 and n2. Returns, per group, what max_ma_strategies returns
    for that group alone, bit for bit. Raises as max_ma_strategies does,
    and ValueError if two uplinks differ in n_r. The uplinks go into noise
    units once, at entry; the sweeps, their objective and the rates then
    run against unit noise, with the budgets and covariances in watts.
    """
    if not groups:
        return []
    uplinks, starts = [], [0]
    for h1r, h2r, *_ in groups:
        pair = tuple(np.ascontiguousarray(_checked(h, "uplinks", None, dtype=complex)) for h in (h1r, h2r))
        if pair[0].ndim != 3 or pair[1].ndim != 3 or len(pair[0]) != len(pair[1]):
            raise ValueError("uplinks must be 3-D stacks with the same N in h1r and h2r")
        uplinks.append(pair)
        starts.append(starts[-1] + len(pair[0]))
    if len({h.shape[1] for pair in uplinks for h in pair}) > 1:
        raise ValueError("every uplink must have the same n_r rows")
    # Each value is checked before it is broadcast over its group: every budget, then every noise variance.
    p1, p2, sig = (
        np.concatenate([_per_instance(group[k], len(h1), name, floor) for (h1, _), group in zip(uplinks, groups)])
        for k, name, floor in ((2, "power budgets", 0.0), (3, "power budgets", 0.0),
                               (4, "the relay noise variance", sys.float_info.min))
    )
    n, eye, quarter = starts[-1], np.eye(uplinks[0][0].shape[1]), sys.float_info.max / 4
    rates = np.full((3, n), np.nan)  # a dropped row's stay NaN
    sweeps = np.zeros(n, dtype=int)
    last_gain = np.empty(n)  # read only where a row converged
    failure = np.full(n, f"iterative water-filling did not settle in {MAX_SWEEPS} sweeps", dtype=object)
    # Noise units from here on, then the entry bound. A sweep whitens against
    # I or more: past the bound, G^H G, H D H^H, the water-fill or D overflows.
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN fails its test
        sigma_r = np.sqrt(sig)[:, np.newaxis, np.newaxis]
        uplinks = [tuple(_over_sigma(h, sigma_r[a:b]) for h in pair) for pair, a, b in zip(uplinks, starts, starts[1:])]
        traces = np.concatenate([[np.einsum("nij,nij->n", v, v) for v in (h1.view(float), h2.view(float))]
                                 for h1, h2 in uplinks], axis=1)  # tr(H1^H H1), tr(H2^H H2) of each row
        live_rows = (traces.sum(0) <= quarter) & ((traces * (p1, p2)).max(0) <= quarter / np.maximum(sig, 1.0))
    failure[~live_rows] = _STOPPED + _OVERFLOW
    idx, p1, p2 = np.flatnonzero(live_rows), p1[live_rows], p2[live_rows]
    # Live rows' index, budgets and last sum rate; per live group its state
    # (the group, its live rows' indices within it, h1, h2, H1^H, H2^H) and last d2.
    previous = np.zeros(len(idx))
    d_out, states, d2s = [], [], []
    for g, (h1, h2) in enumerate(uplinks):
        d_out.append(tuple(np.empty((len(h),) + h.shape[2:] * 2, complex) for h in (h1, h2)))
        j = np.flatnonzero(live_rows[starts[g]:starts[g + 1]])
        if j.size:
            h1, h2 = h1[j], h2[j]
            states.append((g, j, h1, h2, _ct(h1), _ct(h2)))
            d2s.append(np.zeros((j.size,) + h2.shape[2:] * 2, complex))
    rows = _row_slices([len(state[1]) for state in states])
    for sweep in range(1, MAX_SWEEPS + 1 if states else 1):
        s2 = _joined([h2 @ d2 @ h2h for (_, _, _, h2, _, h2h), d2 in zip(states, d2s)])
        d1s, _, singular1 = _best_response([state[2] for state in states], eye + _hermitian(s2), p1, rows=rows)
        s1 = _joined([h1 @ d1 @ h1h for (_, _, h1, _, h1h, _), d1 in zip(states, d1s)])
        # Node 2's objective ln det(I + S1 + S2) is the sum rate: no third factorization.
        d2s, current, singular2 = _best_response([state[3] for state in states], eye + _hermitian(s1), p2, True, rows)
        singular = singular1 | singular2
        gain = current - previous
        done = (gain < SWEEP_GAIN_TOL) & ~singular
        previous = current
        leaving = done | singular
        if not np.count_nonzero(leaving):
            continue
        failure[idx[singular]] = _SINGULAR
        k = idx[done]
        sweeps[k], last_gain[k] = sweep, gain[done]
        for (g, j, *_), r, d1, d2 in zip(states, rows, d1s, d2s):
            out = done[r]
            d_out[g][0][j[out]], d_out[g][1][j[out]] = d1[out], d2[out]
        if np.count_nonzero(leaving) == len(leaving):
            break
        keep = ~leaving
        idx, p1, p2, previous = (a[keep] for a in (idx, p1, p2, previous))
        states, d2s = zip(*[((g, j[m], h1[m], h2[m], h1h[m], h2h[m]), d2[m]) for (g, j, h1, h2, h1h, h2h), d2, m
                            in zip(states, d2s, (keep[r] for r in rows)) if np.count_nonzero(m)])
        rows = _row_slices([len(state[1]) for state in states])
    # The converged pairs' rates, in one call (each matrix is factored
    # alone, so the bits do not depend on which pairs share the call).
    k = np.flatnonzero(sweeps)
    pairs = []  # per group, its converged rows (maybe none)
    for (h1, h2), (d1, d2), start, end in zip(uplinks, d_out, starts, starts[1:]):
        j = np.flatnonzero(sweeps[start:end])
        pairs.append((h1[j], d1[j], h2[j], d2[j]))
    r_ma, r1, r2 = found = _pair_rates(pairs)
    # r_ma is at least either single-user rate and at most their sum;
    # beyond round-off, the log-dets have lost their accuracy.
    valid = (np.maximum(r1, r2) - SWEEP_GAIN_TOL <= r_ma) & (r_ma <= r1 + r2 + SWEEP_GAIN_TOL)
    failure[k] = np.where(valid, None, _UNRELIABLE)
    rates[:, k[valid]] = _valid_rates(found[:, valid])
    return [
        SourceStrategies(rates[:, start:end], d1, d2, sweeps[start:end], last_gain[start:end], failure[start:end])
        for start, end, (d1, d2) in zip(starts, starts[1:], d_out)
    ]


def max_ma_strategies(h1r, h2r, p1_max, p2_max, sigmar_sq) -> SourceStrategies:
    """MA-sum-rate-maximizing source covariances of N instances at full budgets.

    h1r, h2r are stacked uplinks, (N, n_r, n1) and (N, n_r, n2); the budgets
    p1_max, p2_max and the relay noise variance sigmar_sq (watts) are per
    instance, (N,), or one for all. Returns their SourceStrategies, whose
    item i is the SourceStrategy of instance i, its `sweeps` the sweep at
    which it converged, or None for an ill-conditioned realization (drop
    the trial): one still improving after MAX_SWEEPS sweeps, one whose
    interference-plus-noise matrix is numerically singular, one whose rates
    break max(r_bar_1r, r_bar_2r) <= r_ma <= r_bar_1r + r_bar_2r beyond
    round-off, or one whose budgets and uplinks would overflow a sweep
    (dropped on entry).
    The sum rate is nondecreasing across sweeps and the fixed point
    satisfies both users' single-user optimality conditions. Raises
    ValueError on a non-finite uplink, a negative or non-finite budget or a
    noise variance that is non-finite or below sys.float_info.min, and on
    any of them of another shape (waterfill._per_instance for the numbers).
    """
    return max_ma_strategy_groups([(h1r, h2r, p1_max, p2_max, sigmar_sq)])[0]


def max_ma_strategy(channels: ChannelSet, config: SystemConfig) -> SourceStrategy:
    """MA-sum-rate-maximizing source covariances at full budgets.

    The N=1 view of max_ma_strategies. Raises NoConvergenceError where that
    returns None, with the reason.
    """
    (found,) = max_ma_strategy_groups([(channels.h1r[np.newaxis], channels.h2r[np.newaxis],
                                        config.p1_max, config.p2_max, config.sigmar_sq)])
    if found.reasons[0] is not None:
        raise NoConvergenceError(found.reasons[0])
    return found[0]
