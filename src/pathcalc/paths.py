"""Seeded simulation of cadlag sample paths with explicit jump bookkeeping.

Randomness comes from numpy's Philox counter-based 64-bit generator keyed
by the seed, so identical (model, n_steps, horizon, seed) always reproduce
a bit-identical path.  Jump times are inserted as dedicated grid points
(never rounded onto the Euler grid); path values use the right-continuous
post-jump convention with the left limits stored in a separate column.

Draw order is fixed and documented: jump count, jump times, jump sizes,
then one Gaussian increment per cell of the jump-refined grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "TwoPointLaw",
    "UniformLaw",
    "NormalLaw",
    "BrownianMotion",
    "CompoundPoissonJumps",
    "JumpDiffusion",
    "FiniteVariationPath",
    "SamplePath",
    "simulate",
    "split_jumps",
    "reattach_jumps",
    "realized_qv",
]


def seeded_rng(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, an integer in [0, 2**64); every module uses it."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# ---------------------------------------------------------------------------
# jump size laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPointLaw:
    """Jump size a1 with probability p, else a2."""

    p: float
    a1: float
    a2: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("two-point law needs p in [0, 1]")

    @property
    def mean(self) -> float:
        return self.p * self.a1 + (1 - self.p) * self.a2

    @property
    def second_moment(self) -> float:
        return self.p * self.a1**2 + (1 - self.p) * self.a2**2

    def sample(self, rng, size):
        return np.where(rng.uniform(size=size) < self.p, self.a1, self.a2)

    def nonnegative(self) -> bool:
        return self.a1 >= 0 and self.a2 >= 0

    def to_dict(self):
        return {"kind": "two_point", "p": self.p, "a1": self.a1, "a2": self.a2}


@dataclass(frozen=True)
class UniformLaw:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError("uniform law needs lo <= hi")

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2

    @property
    def second_moment(self) -> float:
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size=size)

    def nonnegative(self) -> bool:
        return self.lo >= 0

    def to_dict(self):
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class NormalLaw:
    mean_: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("normal law needs std >= 0")

    @property
    def mean(self) -> float:
        return self.mean_

    @property
    def second_moment(self) -> float:
        return self.mean_**2 + self.std**2

    def sample(self, rng, size):
        return rng.normal(self.mean_, self.std, size=size)

    def nonnegative(self) -> bool:
        return False

    def to_dict(self):
        return {"kind": "normal", "mean": self.mean_, "std": self.std}


def law_from_dict(d) -> TwoPointLaw | UniformLaw | NormalLaw:
    kind = d["kind"]
    if kind == "two_point":
        return TwoPointLaw(d["p"], d["a1"], d["a2"])
    if kind == "uniform":
        return UniformLaw(d["lo"], d["hi"])
    if kind == "normal":
        return NormalLaw(d["mean"], d["std"])
    raise ValueError(f"unknown jump law kind {kind!r}")


# ---------------------------------------------------------------------------
# path models
# ---------------------------------------------------------------------------


class _Parametric:
    """A path model x0 + drift t + sigma W_t + compound Poisson(rate, law) jumps.

    Each subclass answers ``sigma``, ``drift``, ``rate`` and ``law``: Brownian
    motion has no jumps (rate 0, law None), compound Poisson no diffusion.
    """

    @property
    def bracket_coeffs(self) -> tuple:
        """Slopes of t -> <X^c>_t and of the jump compensator: sigma^2, rate E[J^2]."""
        jump = self.rate * self.law.second_moment if self.law is not None else 0.0
        return self.sigma**2, jump


@dataclass(frozen=True)
class BrownianMotion(_Parametric):
    sigma: float = 1.0
    drift: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    rate = 0.0
    law = None

    @property
    def label(self) -> str:
        return f"bm(sigma={self.sigma},drift={self.drift})"

    def to_dict(self):
        return {"kind": "bm", "sigma": self.sigma, "drift": self.drift, "x0": self.x0}


@dataclass(frozen=True)
class CompoundPoissonJumps(_Parametric):
    rate: float
    law: TwoPointLaw | UniformLaw | NormalLaw
    x0: float = 0.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be >= 0")

    sigma = 0.0
    drift = 0.0

    @property
    def label(self) -> str:
        return f"cpj(rate={self.rate})"

    def to_dict(self):
        return {"kind": "cpj", "rate": self.rate, "law": self.law.to_dict(), "x0": self.x0}


@dataclass(frozen=True)
class JumpDiffusion(_Parametric):
    sigma: float
    drift: float
    rate: float
    law: TwoPointLaw | UniformLaw | NormalLaw
    x0: float = 0.0

    def __post_init__(self):
        if self.sigma < 0 or self.rate < 0:
            raise ValueError("sigma and rate must be >= 0")

    @property
    def label(self) -> str:
        return f"jd(sigma={self.sigma},drift={self.drift},rate={self.rate})"

    def to_dict(self):
        return {"kind": "jd", "sigma": self.sigma, "drift": self.drift,
                "rate": self.rate, "law": self.law.to_dict(), "x0": self.x0}


@dataclass(frozen=True)
class FiniteVariationPath:
    """Deterministic piecewise-linear path through (knots_t, knots_x)."""

    knots_t: tuple
    knots_x: tuple

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=float)
        if len(t) < 2 or np.any(np.diff(t) <= 0) or t[0] != 0.0:
            raise ValueError("knots_t must start at 0 and increase strictly")
        object.__setattr__(self, "knots_t", tuple(float(v) for v in self.knots_t))
        object.__setattr__(self, "knots_x", tuple(float(v) for v in self.knots_x))

    # piecewise linear: no continuous martingale part and no jumps
    bracket_coeffs = property(lambda self: (0.0, 0.0))

    @property
    def label(self) -> str:
        return "fv"

    def to_dict(self):
        return {"kind": "fv", "knots_t": list(self.knots_t), "knots_x": list(self.knots_x)}


def model_from_dict(d):
    kind = d["kind"]
    if kind == "bm":
        return BrownianMotion(d.get("sigma", 1.0), d.get("drift", 0.0), d.get("x0", 0.0))
    if kind == "cpj":
        return CompoundPoissonJumps(d["rate"], law_from_dict(d["law"]), d.get("x0", 0.0))
    if kind == "jd":
        return JumpDiffusion(d.get("sigma", 1.0), d.get("drift", 0.0), d["rate"],
                             law_from_dict(d["law"]), d.get("x0", 0.0))
    if kind == "fv":
        return FiniteVariationPath(tuple(d["knots_t"]), tuple(d["knots_x"]))
    raise ValueError(f"unknown path model kind {kind!r}")


# ---------------------------------------------------------------------------
# sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePath:
    """A discretized trajectory with explicit jump marks.

    ``values`` holds the post-jump (right-continuous) state at each grid
    time; ``pre_values`` differs from ``values`` only at jump indices,
    where it holds the left limit.  ``readd_correction`` carries the
    compensated-arithmetic residues produced by :func:`split_jumps` so that
    :func:`reattach_jumps` is bit-exact; it is ``None`` for simulated and
    imported paths.
    """

    times: np.ndarray
    values: np.ndarray
    pre_values: np.ndarray
    jump_indices: np.ndarray
    jump_sizes: np.ndarray
    horizon: float
    model: Optional[object] = None
    seed: Optional[int] = None
    n_steps: Optional[int] = None
    readd_correction: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.pre_values))):
            raise ValueError("path values must be finite")
        for name in ("times", "values", "pre_values", "jump_indices", "jump_sizes"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return len(self.times)

    def median_continuous_move(self) -> float:
        """Median of |X_{t_(i+1)-} - X_(t_i)| over the cells (0 for a single point).

        Jumps are excluded by taking the left limit at each cell's end; on a
        jump-free path these are the plain increments.  Grids and oracles use
        it as the path's resolution scale.
        """
        moves = np.abs(self.pre_values[1:] - self.values[:-1])
        return float(np.median(moves)) if len(moves) else 0.0

    def jump_size_at(self) -> np.ndarray:
        """Jump size at every grid point, 0 where the path does not jump."""
        return _at_points(self.n_points, self.jump_indices, self.jump_sizes)

    def to_csv(self, path) -> None:
        """Columns: time, value, pre_jump_value, jump_size."""
        sizes = self.jump_size_at()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "value", "pre_jump_value", "jump_size"])
            for row in zip(self.times, self.values, self.pre_values, sizes):
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path) -> "SamplePath":
        times, values, pre, sizes = [], [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty CSV file: no header")
            if header[:4] != ["time", "value", "pre_jump_value", "jump_size"]:
                raise ValueError(f"unexpected CSV header {header!r}")
            for row in reader:
                if len(row) < 4:
                    raise ValueError(f"line {reader.line_num}: expected 4 fields, got {len(row)}")
                times.append(float(row[0]))
                values.append(float(row[1]))
                pre.append(float(row[2]))
                sizes.append(float(row[3]))
        if not times:
            raise ValueError("CSV file has a header but no rows")
        sizes = np.asarray(sizes)
        jump_idx = np.nonzero(sizes != 0.0)[0]
        return cls(
            times=np.asarray(times), values=np.asarray(values),
            pre_values=np.asarray(pre), jump_indices=jump_idx,
            jump_sizes=sizes[jump_idx], horizon=float(times[-1]),
        )


def simulate(model, n_steps: int, T: float, seed: int) -> SamplePath:
    """Simulate a sample path on a uniform n_steps grid over [0, T].

    Poisson jump times are superposed as extra grid points carrying exact
    pre/post values; Gaussian increments are drawn per cell of the refined
    grid so the diffusion law is exact at the inserted times too.
    """
    if n_steps < 1 or T <= 0:
        raise ValueError("need n_steps >= 1 and T > 0")
    rng = seeded_rng(seed)
    base = np.linspace(0.0, T, n_steps + 1)

    if isinstance(model, FiniteVariationPath):
        if model.knots_t[-1] < T:
            raise ValueError("finite-variation knots must cover the horizon")
        values = np.interp(base, model.knots_t, model.knots_x)
        return SamplePath(
            times=base, values=values, pre_values=values.copy(),
            jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]),
            horizon=T, model=model, seed=seed, n_steps=n_steps,
        )

    if not isinstance(model, _Parametric):
        raise ValueError(f"unknown path model {model!r}")
    sigma, drift, rate, law = model.sigma, model.drift, model.rate, model.law

    # fixed draw order: jump count, times, sizes, then diffusion increments
    if rate > 0:
        n_jumps = int(rng.poisson(rate * T))
        jump_times = np.sort(rng.uniform(0.0, T, size=n_jumps))
        jump_sizes = np.asarray(law.sample(rng, n_jumps), dtype=float)
        keep = ~np.isin(jump_times, base)  # exact grid collisions (measure zero)
        jump_times, jump_sizes = jump_times[keep], jump_sizes[keep]
        if len(jump_times) > 1:  # coincident jump times (measure zero)
            keep = np.concatenate(([True], np.diff(jump_times) > 0))
            jump_times, jump_sizes = jump_times[keep], jump_sizes[keep]
    else:
        jump_times = np.array([])
        jump_sizes = np.array([])

    times = np.sort(np.concatenate([base, jump_times]))
    jump_idx = np.searchsorted(times, jump_times)
    dt = np.diff(times)
    if sigma > 0 or drift != 0.0:
        z = rng.normal(size=len(dt))
        incr = drift * dt + sigma * np.sqrt(dt) * z
    else:
        incr = np.zeros(len(dt))

    cont = model.x0 + np.concatenate(([0.0], np.cumsum(incr)))
    offsets, offsets_pre = _jump_offsets(len(times), jump_idx, jump_sizes)
    values = cont + offsets
    pre_values = values.copy()
    pre_values[jump_idx] = cont[jump_idx] + offsets_pre[jump_idx]
    # post-jump state is defined as left limit plus jump, exactly
    values[jump_idx] = pre_values[jump_idx] + jump_sizes

    return SamplePath(
        times=times, values=values, pre_values=pre_values,
        jump_indices=jump_idx.astype(np.int64), jump_sizes=jump_sizes,
        horizon=T, model=model, seed=seed, n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# jump offsets and splitting
# ---------------------------------------------------------------------------


def _at_points(n: int, idx, sizes) -> np.ndarray:
    """Length-n array holding ``sizes`` at the point indices ``idx``, 0 elsewhere."""
    out = np.zeros(n)
    out[idx] = sizes
    return out


def _jump_offsets(n: int, idx, sizes):
    """Cumulative jump sum at each point, and its left limit (without the jump at idx)."""
    at = _at_points(n, idx, sizes)
    cum = np.cumsum(at)
    return cum, cum - at


def _two_sum(a: np.ndarray, b: np.ndarray):
    """Error-free transform: returns (s, e) with a + b = s + e exactly."""
    s = a + b
    bv = s - a
    e = (a - (s - bv)) + (b - bv)
    return s, e


def split_jumps(path: SamplePath, a: float):
    """Remove jumps larger than ``a`` in absolute size.

    Returns the continuous(-er) path with those displacements subtracted
    plus the ordered list of removed ``(time, size)`` pairs.  The returned
    path carries compensation residues, so :func:`reattach_jumps` restores
    the original values bit-exactly.
    """
    if a <= 0:
        raise ValueError("jump threshold a must be > 0")
    big = np.abs(path.jump_sizes) > a
    if not np.any(big):
        return path, []

    removed_idx = path.jump_indices[big]
    removed_sizes = path.jump_sizes[big]
    cum, cum_pre = _jump_offsets(path.n_points, removed_idx, removed_sizes)
    values0, err_v = _two_sum(path.values, -cum)
    pre0, err_p = _two_sum(path.pre_values, -cum_pre)

    stripped = SamplePath(
        times=path.times.copy(), values=values0, pre_values=pre0,
        jump_indices=path.jump_indices[~big].copy(),
        jump_sizes=path.jump_sizes[~big].copy(),
        horizon=path.horizon, model=path.model, seed=path.seed,
        n_steps=path.n_steps,
        readd_correction=np.stack([err_v, err_p]),
    )
    removed = [(float(path.times[i]), float(s))
               for i, s in zip(removed_idx, removed_sizes)]
    return stripped, removed


def reattach_jumps(path: SamplePath, removed) -> SamplePath:
    """Inverse of :func:`split_jumps`; bit-exact when the correction is present."""
    if not removed:
        return path
    times = np.asarray([t for t, _ in removed])
    sizes = np.asarray([s for _, s in removed])
    idx = np.searchsorted(path.times, times)
    if not np.array_equal(path.times[idx], times):
        raise ValueError("removed jump times are not grid points of the path")

    cum, cum_pre = _jump_offsets(path.n_points, idx, sizes)
    if path.readd_correction is not None:
        err_v, err_p = path.readd_correction
        s, e2 = _two_sum(path.values, cum)
        values = s + (e2 + err_v)
        s, e2 = _two_sum(path.pre_values, cum_pre)
        pre = s + (e2 + err_p)
    else:
        values = path.values + cum
        pre = path.pre_values + cum_pre

    all_idx = np.concatenate([path.jump_indices, idx])
    all_sizes = np.concatenate([path.jump_sizes, sizes])
    order = np.argsort(all_idx)
    return SamplePath(
        times=path.times.copy(), values=values, pre_values=pre,
        jump_indices=all_idx[order], jump_sizes=all_sizes[order],
        horizon=path.horizon, model=path.model, seed=path.seed,
        n_steps=path.n_steps,
    )


def realized_qv(grid) -> float:
    """Sum of squared raw increments of the grid's path over the grid's points."""
    x = grid.path.values[grid.indices]
    return float(np.sum((x[1:] - x[:-1]) ** 2))
