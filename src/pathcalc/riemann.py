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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import OutsideDomainError, ResolutionExhaustedError
from .functional import TwoIndexFn
from .paths import SamplePath, seeded_rng, simulate

__all__ = [
    "RiemannGrid",
    "dyadic_grid",
    "hitting_grid",
    "build_grid",
    "PathFunctional",
    "pathwise_sum",
    "stopped_functional",
    "squared_increment_ratio",
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

    @property
    def mesh(self) -> float:
        """The longest cell of the grid."""
        return float(np.max(np.diff(self.times)))

    def __len__(self) -> int:
        return len(self.indices)


def dyadic_grid(path: SamplePath, level: int) -> RiemannGrid:
    """The points nearest to the dyadic times j T / 2^level (ties go right),
    every jump index and both endpoints."""
    if level < 0:
        raise ValueError("level must be >= 0")
    targets = path.horizon * np.arange(2**level + 1) / 2**level
    pos = np.searchsorted(path.times, targets)
    pos = np.clip(pos, 0, path.n_points - 1)
    left = np.clip(pos - 1, 0, path.n_points - 1)
    pick_left = np.abs(path.times[left] - targets) < np.abs(path.times[pos] - targets)
    marked = np.zeros(path.n_points, dtype=bool)
    marked[np.where(pick_left, left, pos)] = True
    marked[path.jump_indices] = True
    marked[[0, -1]] = True
    return RiemannGrid(path=path, indices=np.flatnonzero(marked), scheme="dyadic",
                       param=float(level))


def hitting_grid(path: SamplePath, eps: float) -> RiemannGrid:
    """First-passage indices of the path across an eps-spaced value lattice.

    The lattice is anchored at the starting value; each grid point is the
    first index where the path has moved at least eps from the previous
    lattice anchor, which makes the sequence a family of stopping times.
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
    x = path.values.tolist()
    out = [0]
    anchor = x[0]
    for i, xi in enumerate(x):
        if abs(xi - anchor) >= eps:
            out.append(i)
            try:
                anchor += eps * math.trunc((xi - anchor) / eps)
            except OverflowError:
                raise ResolutionExhaustedError(
                    f"eps={eps} is below the float range of the path's moves") from None
    if out[-1] != len(x) - 1:
        out.append(len(x) - 1)
    return RiemannGrid(path=path, indices=np.asarray(out), scheme="hitting", param=float(eps))


def build_grid(path: SamplePath, scheme: str, param) -> RiemannGrid:
    if scheme == "dyadic":
        return dyadic_grid(path, int(param))
    if scheme == "hitting":
        return hitting_grid(path, float(param))
    raise ValueError(f"unknown grid scheme {scheme!r}")


# ---------------------------------------------------------------------------
# path functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathFunctional:
    """A two-index functional composed with a path: F(s, t) = base(X_s, X_t).

    ``stop_index`` (set via :func:`stopped_functional`) clamps both time
    slots, realizing F(u ^ sigma, v ^ sigma).
    """

    path: SamplePath
    base: TwoIndexFn
    stop_index: Optional[int] = None

    def pair_values(self, i, j) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if self.stop_index is not None:
            i = np.minimum(i, self.stop_index)
            j = np.minimum(j, self.stop_index)
        return np.asarray(self.base(self.path.values[i], self.path.values[j]), dtype=float)


def _cell_values(pf: PathFunctional, grid: RiemannGrid) -> np.ndarray:
    """F over each pair of consecutive grid times; the grid must be on pf's path."""
    if grid.path is not pf.path:
        raise ValueError("grid belongs to a different path")
    idx = grid.indices
    return pf.pair_values(idx[:-1], idx[1:])


def pathwise_sum(pf: PathFunctional, grid: RiemannGrid) -> float:
    """Sum of F over consecutive grid times."""
    return float(np.sum(_cell_values(pf, grid)))


def pathwise_series(pf: PathFunctional, grid: RiemannGrid) -> np.ndarray:
    """Cumulative sums of F along the grid (0 at time 0)."""
    return np.concatenate(([0.0], np.cumsum(_cell_values(pf, grid))))


def stopped_functional(pf: PathFunctional, sigma: float) -> PathFunctional:
    """Clamp both time slots at sigma (snapped to the last grid time <= sigma)."""
    if not (0.0 <= sigma <= pf.path.horizon):
        raise ValueError("sigma must lie within [0, horizon]")
    cap = int(np.searchsorted(pf.path.times, sigma, side="right") - 1)
    return replace(pf, stop_index=cap)


def squared_increment_ratio(pf: PathFunctional, s: float, t: float) -> float:
    """F(s, t) / (X_t - X_s)^2 for a pair of grid times with X_s != X_t."""
    times = pf.path.times
    i, j = np.minimum(np.searchsorted(times, [s, t]), len(times) - 1)
    if times[i] != s or times[j] != t:
        raise ValueError("s and t must be grid times of the path")
    xs, xt = pf.path.values[i], pf.path.values[j]
    if xs == xt:
        raise OutsideDomainError("pair has X_s == X_t; the ratio is undefined there")
    return float(pf.pair_values(i, j)) / (xt - xs) ** 2


# ---------------------------------------------------------------------------
# boundedness scan of the normalized ratio
# ---------------------------------------------------------------------------


def _ratio_extrema(pf: PathFunctional, i: np.ndarray, j: np.ndarray):
    xs = pf.path.values[i]
    xt = pf.path.values[j]
    keep = (xt - xs) ** 2 > 1e-12
    if not np.any(keep):
        return None
    vals = pf.pair_values(i[keep], j[keep]) / (xt[keep] - xs[keep]) ** 2
    return float(np.min(vals)), float(np.max(vals))


def boundedness_scan(
    base: TwoIndexFn,
    paths: Sequence[SamplePath],
    bound_type: str = "bounded",
    seed: int = 0,
):
    """Scan F(s, t) / (X_t - X_s)^2 over sampled grid pairs of many paths.

    Pairs at strides 8, 4, 2 and 1 are scanned on each path, plus 20000
    random pairs counted with stride 1; the bound flag requires the
    extremum at stride 1 to stay within a factor 2 of the one at stride 8
    as the pair separation shrinks.  ``bound_type`` chooses sup-|ratio|
    stability ("bounded") or stability of the lower tail ("lower_bounded").
    Pairs with squared move at most 1e-12 are skipped: there the ratio
    amplifies cancellation roundoff like ulp / (X_t - X_s)^2.
    """
    if bound_type not in ("bounded", "lower_bounded"):
        raise ValueError("bound_type must be 'bounded' or 'lower_bounded'")
    if not paths:
        raise ValueError("need at least one path")
    rng = seeded_rng(seed)
    strides = (8, 4, 2, 1)
    sup_abs = {s: 0.0 for s in strides}
    inf_val = {s: np.inf for s in strides}
    for path in paths:
        pf = PathFunctional(path=path, base=base)
        n = path.n_points
        starts = {s: np.arange(0, n - s, s, dtype=np.int64) for s in strides}
        i = rng.integers(0, n - 1, size=20000)
        j = rng.integers(1, n, size=20000)
        i, j = np.minimum(i, j - 1).astype(np.int64), np.maximum(i + 1, j).astype(np.int64)
        # pairs s apart for each stride s, then the random pairs counted with stride 1
        pairs = [(s, a, a + s) for s, a in starts.items()] + [(1, i, j)]
        for s, i, j in pairs:
            ext = _ratio_extrema(pf, i, j)
            if ext is not None:
                inf_val[s] = min(inf_val[s], ext[0])
                sup_abs[s] = max(sup_abs[s], abs(ext[0]), abs(ext[1]))

    coarse, fine = strides[0], strides[-1]
    if bound_type == "bounded":
        flag = sup_abs[fine] <= 2.0 * sup_abs[coarse] + 1e-9
        return sup_abs[fine], bool(flag)
    flag = inf_val[fine] >= 2.0 * min(inf_val[coarse], 0.0) - 1e-9
    return inf_val[fine], bool(flag)


# ---------------------------------------------------------------------------
# convergence in probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Empirical certificate for a limit in probability along refining grids.

    ``estimates[label]`` is an (n_paths, n_levels) array of pathwise sums;
    ``tail_probs[label][k]`` is the empirical frequency of
    |S_k - S_{k+1}| > eps.  The verdict requires the final per-scheme tail
    frequency and every cross-scheme discrepancy frequency (at the finest
    levels) to fall below delta.
    """

    scheme_params: dict
    estimates: dict
    tail_probs: dict
    cross_tail: dict
    eps: float
    delta: float
    verdict: bool

    def to_json_dict(self):
        return {
            "scheme_params": self.scheme_params,
            "estimates": {k: np.asarray(v).tolist() for k, v in self.estimates.items()},
            "tail_probs": self.tail_probs,
            "cross_tail": self.cross_tail,
            "eps": self.eps,
            "delta": self.delta,
            "verdict": self.verdict,
        }

    def trace_csv(self, fh) -> None:
        fh.write("scheme,path,level_ordinal,param,estimate\n")
        for label, arr in sorted(self.estimates.items()):
            params = self.scheme_params[label]
            for p in range(arr.shape[0]):
                for lv in range(arr.shape[1]):
                    fh.write(f"{label},{p},{lv},{params[lv]},{arr[p, lv]!r}\n")


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
    the contract, and each needs at least one param.
    """
    params = {spec["scheme"]: list(spec["params"]) for spec in schemes}
    if len(schemes) < 2 or len(params) < len(schemes):
        raise ValueError("need at least two grid schemes of distinct names to test independence")
    if not all(params.values()):
        raise ValueError("every grid scheme needs at least one param")
    estimates = {name: np.zeros((n_paths, len(ps))) for name, ps in params.items()}

    for p in range(n_paths):
        path = simulate(model, n_steps=n_steps, T=T, seed=base_seed + p)
        pf = PathFunctional(path=path, base=base)
        for name, ps in params.items():
            for lv, param in enumerate(ps):
                estimates[name][p, lv] = pathwise_sum(pf, build_grid(path, name, param))

    tail_probs = {
        name: [float(np.mean(np.abs(arr[:, k] - arr[:, k + 1]) > eps))
               for k in range(arr.shape[1] - 1)]
        for name, arr in estimates.items()
    }
    cross_tail = {
        f"{a}|{b}": float(np.mean(np.abs(estimates[a][:, -1] - estimates[b][:, -1]) > eps))
        for a, b in itertools.combinations(params, 2)
    }
    ok_scheme = all((not tails) or tails[-1] <= delta for tails in tail_probs.values())
    ok_cross = all(frac <= delta for frac in cross_tail.values())
    return ConvergenceDiagnostic(
        scheme_params=params,
        estimates=estimates,
        tail_probs=tail_probs,
        cross_tail=cross_tail,
        eps=eps,
        delta=delta,
        verdict=bool(ok_scheme and ok_cross),
    )
