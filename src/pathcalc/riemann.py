"""Pathwise sums of two-index functionals along refining stopping-time grids.

Grids come in two families: dyadic time grids (refined with the path's jump
times) and first-passage grids over an eps-spaced value lattice, which are
stopping times by construction.  Convergence in probability is certified
empirically through tail frequencies across refinement levels and across
grid families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResolutionExhaustedError
from .functional import TwoIndexFn, squared_increment
from .paths import SamplePath, _is_int, seeded_rng, simulate

__all__ = [
    "RiemannGrid",
    "dyadic_grid",
    "hitting_grid",
    "build_grid",
    "pathwise_sum",
    "realized_qv",
    "boundedness_scan",
    "ConvergenceDiagnostic",
    "limit_in_probability",
]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiemannGrid:
    """Increasing grid-point indices into a path, from time 0 to the horizon."""

    path: SamplePath
    indices: np.ndarray
    scheme: str
    param: float

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        if idx[0] != 0 or idx[-1] != self.path.n_points - 1:
            raise ValueError("grid must start at index 0 and end at the horizon")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("grid indices must be strictly increasing")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def times(self) -> np.ndarray:
        return self.path.times[self.indices]

    def __len__(self) -> int:
        return len(self.indices)


def _mesh(times: np.ndarray) -> float:
    """The longest cell between increasing ``times``."""
    return float(np.max(np.diff(times)))


def dyadic_grid(path: SamplePath, level: int) -> RiemannGrid:
    """The points nearest to the dyadic times j T / 2^level (ties go right), T the
    path's last time, every jump index and both endpoints.

    ``level`` must be an integer >= 0, not a bool.  The nearest-point picks depend
    only on ``path.times`` and the level.  The targets nest bitwise: target j at
    level L is target j 2^k at level L + k, since T (2^k j) is exactly
    2^k fl(T j) and dividing by a power of two is exact.  Jump-free paths
    that :func:`~pathcalc.paths.simulate` builds with one (n_steps, T) share
    one read-only time grid object, so the process keeps the picks of the
    last jump-free time grid searched at the finest level computed, and a
    coarser level on the same grid object, or on an equal grid (a path read
    from a CSV file, say), takes every 2^k-th of them.  A path with jumps has
    a time grid of its own: its picks are searched on every call and not kept.

    The grids nest too: once a level's grid holds every index, so does every
    finer level's.  A level past the least level L with 2^L >= 2 (n_points - 1),
    where a uniform time grid holds every index, is first searched at L; when
    that grid does not hold every index, each point is tested against the two
    targets beside it at the level asked for (:func:`_held_picks`), which raises
    :class:`ResolutionExhaustedError` past level 53 or where T 2^level overflows.
    """
    if not (_is_int(level) and level >= 0):
        raise ValueError(f"level must be an integer >= 0, got {level!r}")
    # (2 n_points - 3).bit_length() is that L
    least = (2 * path.n_points - 3).bit_length()
    indices = _dyadic_indices(path, min(least, level))
    if least < level and len(indices) < path.n_points:
        indices = _dyadic_indices(path, level, _held_picks)
    return RiemannGrid(path=path, indices=indices, scheme="dyadic", param=float(level))


def _dyadic_indices(path: SamplePath, level: int, pick=None) -> np.ndarray:
    """The indices of :func:`dyadic_grid` at ``level``, searched at that level by ``pick``,
    by default :func:`_nearest_picks` or, on a jump-free path, :func:`_shared_picks`."""
    if pick is None:
        pick = _nearest_picks if len(path.jump_indices) else _shared_picks
    marked = np.zeros(path.n_points, dtype=bool)
    marked[pick(path.times, level)] = True
    marked[path.jump_indices] = True
    marked[[0, -1]] = True
    return np.flatnonzero(marked)


def _nearest_picks(times: np.ndarray, level: int) -> np.ndarray:
    """The index nearest to each target T j / 2^level, T the last time, ties to the right."""
    targets = times[-1] * np.arange(2**level + 1) / 2**level
    pos = np.clip(np.searchsorted(times, targets), 0, len(times) - 1)
    left = np.clip(pos - 1, 0, len(times) - 1)
    return np.where(np.abs(times[left] - targets) < np.abs(times[pos] - targets), left, pos)


def _held_picks(times: np.ndarray, level: int) -> np.ndarray:
    """The interior indices that :func:`_nearest_picks` picks, found per point.

    Only the targets in (t_(i-1), t_(i+1)] can pick an interior point i, and of those
    the largest target <= t_i and the smallest above t_i favour it most, so i is picked
    when either of the two, where it lies in that range, picks it by the same rounded
    distances and the same tie rule.  The work is per point, never per target.  A
    target index j is a float, exact only up to 2^53, so a level past 53, or one where
    T 2^level overflows, raises :class:`ResolutionExhaustedError`.
    """
    n = 2**level
    T = float(times[-1])
    if level > 53 or not math.isfinite(T * n):
        raise ResolutionExhaustedError(
            f"dyadic level {level} is past the float resolution of the path's times")
    if not T > 0:
        # every target then lies at or past the last time, which alone picks them all
        return np.array([], dtype=np.int64)
    prev, t, after = times[:-2], times[1:-1], times[2:]
    # j: the largest target index with T j / 2^level <= t, estimated and then corrected
    # (-1 where every target lies above t)
    j = np.clip(np.floor(t / T * n), -1, n)
    while np.any(above := (j >= 0) & (T * j / n > t)):
        j[above] -= 1
    while np.any(below := T * (j + 1) / n <= t):
        j[below] += 1
    lo, hi = T * j / n, T * (j + 1) / n
    # the distance tests of _nearest_picks, with (left, pos) = (i - 1, i) and (i, i + 1);
    # a hi past t_(i+1) fails its test, as it is no nearer to t_i
    held = (j >= 0) & (lo > prev) & ~(np.abs(prev - lo) < np.abs(t - lo))
    held |= np.abs(t - hi) < np.abs(after - hi)
    return np.flatnonzero(held) + 1


# (times, level, picks) of the last time grid that _shared_picks searched, or None, rebound
# whole and never mutated; the times are a path's read-only array, for a simulated
# jump-free path the time grid that it shares with the others of its (n_steps, T)
_last_picks = None


def _shared_picks(times: np.ndarray, level: int) -> np.ndarray:
    """:func:`_nearest_picks`, taken strided from the process's last search when that
    was on the same time grid object, or an equal one, at a level at least as fine."""
    global _last_picks
    memo = _last_picks
    if (memo is not None and memo[1] >= level
            and (memo[0] is times or np.array_equal(memo[0], times))):
        # hold the newest path's times, so that an older path's are not kept alive
        _last_picks = (times,) + memo[1:]
        return memo[2][::2 ** (memo[1] - level)]
    picks = _nearest_picks(times, level)
    # the targets nest only while the finest product T 2^level does not overflow
    if math.isfinite(times[-1] * 2**level):
        # the narrowest unsigned type that holds the indices: it keeps the memo, and the
        # process's peak memory, small
        picks = picks.astype(np.min_scalar_type(len(times) - 1))
        picks.flags.writeable = False
        _last_picks = (times, level, picks)
    return picks


def hitting_grid(path: SamplePath, eps: float) -> RiemannGrid:
    """First-passage indices of the path across an eps-spaced value lattice.

    The lattice is anchored at the starting value; each grid point is the
    first index where the path has moved at least eps from the previous
    lattice anchor, which makes the sequence a family of stopping times.
    The rule is the float walk of :func:`_walk_from`, and the grid is
    bit-identical to it: :func:`_proposed_hits` proposes the whole walk in
    lattice units, every step of the proposal is checked against the walk's
    float rule, and from the first step that fails the check (a path value
    within rounding of a lattice line, or an overflowing quotient) the walk
    itself runs to the end of the path.
    Raises :class:`ResolutionExhaustedError` when eps is below twice the
    median absolute continuous move of the path, or so small that a move
    over eps overflows.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    resolution = 2.0 * path.median_continuous_move()
    if eps < resolution:
        raise ResolutionExhaustedError(
            f"eps={eps} is below the path resolution heuristic {resolution:.3g}"
        )
    x = np.asarray(path.values, dtype=float)
    hits, anchors, fail = _checked_hits(x, float(eps))
    if fail is not None:
        hits = hits.tolist() + _walk_from(x, eps, fail, float(anchors[len(hits)]))
    out = np.concatenate(([0], np.asarray(hits, dtype=np.int64)))
    if out[-1] != len(x) - 1:
        out = np.append(out, len(x) - 1)
    return RiemannGrid(path=path, indices=out, scheme="hitting", param=float(eps))


def _walk_from(x: np.ndarray, eps: float, start: int, anchor: float) -> list:
    """The hits of the first-passage walk from index ``start`` with its lattice anchor:
    a hit is a point at least eps from the anchor, and moves the anchor by eps times
    the truncated quotient of the move."""
    out = []
    for i, xi in enumerate(x[start:].tolist(), start):
        if abs(xi - anchor) >= eps:
            out.append(i)
            try:
                anchor += eps * math.trunc((xi - anchor) / eps)
            except OverflowError:
                raise ResolutionExhaustedError(
                    f"eps={eps} is below the float range of the path's moves") from None
    return out


def _proposed_hits(x: np.ndarray, eps: float):
    """The walk's hits and lattice moves, proposed in lattice units u = (x - x_0) / eps.

    The walk's lattice index k obeys k_i = clamp(k_(i-1), floor(u_i), ceil(u_i)), so
    k stays put while floor(u) does not change and u stays off the lattice.  At every
    other point k is floor(u), plus 1 when floor(u) fell and u is off the lattice,
    whatever k was before.  Hits are those points where k differs from its value at
    the previous such point.
    """
    u = (x - x[0]) / eps
    floor = np.floor(u)
    step = np.diff(floor)
    off = u[1:] != floor[1:]
    events = np.flatnonzero((step != 0) | ~off)
    k = np.concatenate(([0.0], floor[events + 1] + ((step[events] < 0) & off[events])))
    moved = np.flatnonzero(k[1:] != k[:-1])
    return events[moved] + 1, k[moved + 1] - k[moved]


def _checked_hits(x: np.ndarray, eps: float):
    """The proposed hits that the walk's float rule confirms, the walk's anchors after
    them, and the first index where the check fails (None when it never does).

    The anchors repeat the walk's ``anchor += eps * trunc(...)`` with one sequential
    cumulative sum.  A step passes when ``|x_i - anchor| >= eps`` holds exactly at the
    proposed hits, and at each hit the quotient is finite and truncates to the proposed
    move; the prefix before the first failure is then the walk's own.
    """
    with np.errstate(all="ignore"):
        hits, moves = _proposed_hits(x, eps)
        anchors = np.cumsum(np.concatenate(([x[0]], eps * moves)))
        # anchor j is in effect from the point after hit j up to and including hit j + 1
        in_effect = np.repeat(anchors, np.diff(np.concatenate(([-1], hits, [len(x) - 1]))))
        diff = x - in_effect
        proposed = np.zeros(len(x), dtype=bool)
        proposed[hits] = True
        quotient = diff[hits] / eps
        bad = np.flatnonzero((np.abs(diff) >= eps) != proposed)
        bad_hits = hits[~(np.isfinite(quotient) & (np.trunc(quotient) == moves))]
    fail = min(bad[:1].tolist() + bad_hits[:1].tolist(), default=None)
    if fail is None:
        return hits, anchors, None
    return hits[hits < fail], anchors, fail


def build_grid(path: SamplePath, scheme: str, param) -> RiemannGrid:
    if scheme == "dyadic":
        return dyadic_grid(path, param)
    if scheme == "hitting":
        return hitting_grid(path, float(param))
    raise ValueError(f"unknown grid scheme {scheme!r}")


# ---------------------------------------------------------------------------
# path functionals
# ---------------------------------------------------------------------------


def pathwise_sum(base: TwoIndexFn, grid: RiemannGrid) -> float:
    """Sum of F(s, t) = base(X_s, X_t) over consecutive times of the grid, X its path."""
    x = grid.path.values[grid.indices]
    return float(np.sum(np.asarray(base(x[:-1], x[1:]), dtype=float)))


def realized_qv(grid: RiemannGrid) -> float:
    """Sum of squared increments of the grid's path over the grid's points."""
    return pathwise_sum(squared_increment(), grid)


# ---------------------------------------------------------------------------
# boundedness scan of the normalized ratio
# ---------------------------------------------------------------------------


def _ratio_sup(base: TwoIndexFn, path: SamplePath, i: np.ndarray, j: np.ndarray) -> float:
    """The largest |F(s, t)| / (X_t - X_s)^2 over the pairs (i, j) whose squared move
    exceeds 1e-12; 0 when none does."""
    xs = path.values[i]
    xt = path.values[j]
    keep = (xt - xs) ** 2 > 1e-12
    if not np.any(keep):
        return 0.0
    xs, xt = xs[keep], xt[keep]
    return float(np.max(np.abs(np.asarray(base(xs, xt), dtype=float) / (xt - xs) ** 2)))


def boundedness_scan(
    base: TwoIndexFn,
    paths: Sequence[SamplePath],
    bound_type: str = "bounded",
    seed: int = 0,
):
    """Scan |F(s, t)| / (X_t - X_s)^2 over sampled grid pairs of many paths.

    Pairs at strides 8, 4, 2 and 1 are scanned on each path, plus 20000
    random pairs counted with stride 1.  Returns the sup at stride 1 and
    whether it stays within a factor 2 of the one at stride 8 as the pair
    separation shrinks.  ``bound_type`` must be "bounded".  Pairs with
    squared move at most 1e-12 are skipped: there the ratio amplifies
    cancellation roundoff like ulp / (X_t - X_s)^2.
    """
    if bound_type != "bounded":
        raise ValueError(f"bound_type must be 'bounded', got {bound_type!r}")
    if not paths:
        raise ValueError("need at least one path")
    rng = seeded_rng(seed)
    strides = (8, 4, 2, 1)
    sup_abs = {s: 0.0 for s in strides}
    for path in paths:
        n = path.n_points
        starts = {s: np.arange(0, n - s, s, dtype=np.int64) for s in strides}
        i = rng.integers(0, n - 1, size=20000)
        j = rng.integers(1, n, size=20000)
        i, j = np.minimum(i, j - 1).astype(np.int64), np.maximum(i + 1, j).astype(np.int64)
        # pairs s apart for each stride s, then the random pairs counted with stride 1
        pairs = [(s, a, a + s) for s, a in starts.items()] + [(1, i, j)]
        for s, i, j in pairs:
            sup_abs[s] = max(sup_abs[s], _ratio_sup(base, path, i, j))

    coarse, fine = strides[0], strides[-1]
    return sup_abs[fine], bool(sup_abs[fine] <= 2.0 * sup_abs[coarse] + 1e-9)


# ---------------------------------------------------------------------------
# convergence in probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Empirical certificate for a limit in probability along refining grids.

    ``estimates[label]`` is an (n_paths, n_levels) array of pathwise sums;
    ``cross_tail["a|b"]`` is the empirical frequency of |S^a - S^b| > eps at
    the finest params of schemes a and b.  :func:`_tail_fractions` gives the
    per-scheme tail frequencies and the verdict from the estimates.
    """

    scheme_params: dict
    estimates: dict
    cross_tail: dict

    def to_json_dict(self):
        """The params and the estimates, from which :func:`_tail_fractions` gives the rest."""
        return {
            "scheme_params": self.scheme_params,
            "estimates": {k: np.asarray(v).tolist() for k, v in self.estimates.items()},
        }


def _tail_fractions(estimates: dict, eps: float, delta: float):
    """The per-scheme tail frequencies, the cross-scheme ones and the verdict of a
    :class:`ConvergenceDiagnostic` from its estimates, an (n_paths, n_params) array per
    scheme in scheme order.

    ``tail_probs[label][k]`` is the frequency of |S_k - S_{k+1}| > eps.  The verdict
    requires the final per-scheme tail frequency and every cross-scheme one to be at
    most delta.
    """
    tail_probs = {
        name: [float(np.mean(np.abs(arr[:, k] - arr[:, k + 1]) > eps))
               for k in range(arr.shape[1] - 1)]
        for name, arr in estimates.items()
    }
    cross_tail = {
        f"{a}|{b}": float(np.mean(np.abs(estimates[a][:, -1] - estimates[b][:, -1]) > eps))
        for a, b in itertools.combinations(estimates, 2)
    }
    ok_scheme = all((not tails) or tails[-1] <= delta for tails in tail_probs.values())
    ok_cross = all(frac <= delta for frac in cross_tail.values())
    return tail_probs, cross_tail, bool(ok_scheme and ok_cross)


def limit_in_probability(
    base: TwoIndexFn,
    model,
    schemes: Sequence[dict],
    n_paths: int,
    eps: float = 0.05,
    delta: float = 0.05,
    n_steps: int = 4096,
    T: float = 1.0,
    base_seed: int = 0,
) -> ConvergenceDiagnostic:
    """Monte Carlo test that pathwise sums converge and are grid-independent.

    ``schemes`` is a list of {"scheme": name, "params": [...]} with params
    ordered coarse to fine.  At least two schemes of distinct names are
    required, since independence of the intervening grid family is part of
    the contract, and each needs at least one param.  ``eps`` is the
    tolerance of ``cross_tail``; ``delta`` does not change the result, whose
    verdict :func:`_tail_fractions` gives from the estimates.
    """
    params = {spec["scheme"]: list(spec["params"]) for spec in schemes}
    if len(schemes) < 2 or len(params) < len(schemes):
        raise ValueError("need at least two grid schemes of distinct names to test independence")
    if not all(params.values()):
        raise ValueError("every grid scheme needs at least one param")
    estimates = {name: np.zeros((n_paths, len(ps))) for name, ps in params.items()}

    for p in range(n_paths):
        path = simulate(model, n_steps=n_steps, T=T, seed=base_seed + p)
        for name, ps in params.items():
            for lv, param in enumerate(ps):
                estimates[name][p, lv] = pathwise_sum(base, build_grid(path, name, param))

    cross_tail = _tail_fractions(estimates, eps, delta)[1]
    return ConvergenceDiagnostic(scheme_params=params, estimates=estimates, cross_tail=cross_tail)
