"""Seeded simulation of cadlag sample paths with explicit jump bookkeeping.

Randomness comes from numpy's Philox counter-based 64-bit generator keyed
by the seed, so identical (model, n_steps, T, seed) always reproduce
a bit-identical path.  Jump times are inserted as dedicated grid points
(never rounded onto the Euler grid); path values use the right-continuous
post-jump convention with the left limits stored in a separate column.

Draw order is fixed: jump count, times and sizes (at rate > 0), then one
Gaussian increment per cell of the grid refined by the jump times.  One rule
draws every increment (``_increments``) and one every set of Poisson events
(``_poisson_events``), for these paths and for the compensator's Monte Carlo.

A jump is a nonzero size: a drawn size of 0 keeps its time as a grid point
but, as ``SamplePath.from_csv`` reads it back, is no jump.  A path that draws
no jump time (Brownian motion, a finite-variation path, or a jump model whose
draw leaves none, at rate 0 or not) keeps no jump bookkeeping: its ``times``
is the one read-only uniform grid that the process holds for its last
(n_steps, T), shared by every such path simulated on it, and its
``pre_values`` is its ``values`` array.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TwoPointLaw",
    "UniformLaw",
    "BrownianMotion",
    "CompoundPoissonJumps",
    "JumpDiffusion",
    "FiniteVariationPath",
    "SamplePath",
    "simulate",
]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_seed(value) -> bool:
    """Whether ``value`` is a key of :func:`seeded_rng`: an integer in [0, 2**64), not a bool."""
    return _is_int(value) and 0 <= value < 2**64


def seeded_rng(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, an integer in [0, 2**64), else a ``ValueError``
    (a float or a bool is not truncated); every module uses it."""
    if not _is_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# ---------------------------------------------------------------------------
# named-parameter dicts (path models, jump laws, catalog parameters, run configs)
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value, name: str) -> float:
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _reals(value, name: str) -> list:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or not all(map(_is_real, value)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return [float(v) for v in value]


def _resolve_keys(given, keys: dict, where: str, top: dict | None = None) -> dict:
    """``given`` checked against ``keys`` and completed with its defaults.

    ``keys`` maps each accepted key, in order, to ``(type, default)``.  The
    type is a function ``(value, key) -> value`` that raises ``ValueError``
    for a value it rejects, or a nested dict of keys.  A default is written
    as a config would write it and passes through the type; ``_REQUIRED``
    marks a key without one, ``None`` an optional key that stays ``None``
    when absent, and a callable computes the default from ``top``, the
    outermost dict resolved so far.  An unknown or missing key is a
    ``ValueError``.
    """
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a JSON object, got {given!r}")
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}; known keys: {sorted(keys)}")
    out = {}
    top = out if top is None else top
    for name, (typ, default) in keys.items():
        if name in given:
            value = given[name]
        elif default is _REQUIRED:
            raise ValueError(f"missing key {name!r} in {where}")
        elif default is None:
            out[name] = None
            continue
        elif callable(default):
            out[name] = default(top)
            continue
        else:
            value = default
        out[name] = (_resolve_keys(value, typ, name, top) if isinstance(typ, dict)
                     else typ(value, name))
    return out


def _from_dict(d, tables: dict, what: str):
    """The object that ``d`` describes: ``d["kind"]`` picks ``(class, keys)`` in ``tables``,
    and the resolved keys are the class's arguments in order."""
    if not isinstance(d, dict):
        raise ValueError(f"a {what} must be a JSON object, got {d!r}")
    if "kind" not in d:
        raise ValueError(f"missing key 'kind' in a {what}")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in tables:
        raise ValueError(f"unknown {what} kind {kind!r}")
    cls, keys = tables[kind]
    params = {k: v for k, v in d.items() if k != "kind"}
    return cls(*_resolve_keys(params, keys, f"a {kind} {what}").values())


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


# kind -> (class, its keys in argument order: name -> (type, default))
_LAWS = {
    "two_point": (TwoPointLaw, {"p": (_real, _REQUIRED), "a1": (_real, _REQUIRED),
                                "a2": (_real, _REQUIRED)}),
    "uniform": (UniformLaw, {"lo": (_real, _REQUIRED), "hi": (_real, _REQUIRED)}),
}


def law_from_dict(d) -> TwoPointLaw | UniformLaw:
    """The jump law of ``d``; a missing, unknown or mistyped key is a ``ValueError``."""
    return _from_dict(d, _LAWS, "jump law")


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


@dataclass(frozen=True)
class CompoundPoissonJumps(_Parametric):
    rate: float
    law: TwoPointLaw | UniformLaw
    x0: float = 0.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be >= 0")

    sigma = 0.0
    drift = 0.0

    @property
    def label(self) -> str:
        return f"cpj(rate={self.rate})"


@dataclass(frozen=True)
class JumpDiffusion(_Parametric):
    sigma: float
    drift: float
    rate: float
    law: TwoPointLaw | UniformLaw
    x0: float = 0.0

    def __post_init__(self):
        if self.sigma < 0 or self.rate < 0:
            raise ValueError("sigma and rate must be >= 0")

    @property
    def label(self) -> str:
        return f"jd(sigma={self.sigma},drift={self.drift},rate={self.rate})"


@dataclass(frozen=True)
class FiniteVariationPath:
    """Deterministic piecewise-linear path through (knots_t, knots_x)."""

    knots_t: tuple
    knots_x: tuple

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=float)
        if len(t) < 2 or np.any(np.diff(t) <= 0) or t[0] != 0.0:
            raise ValueError("knots_t must start at 0 and increase strictly")
        if len(self.knots_x) != len(t):
            raise ValueError(f"knots_x must hold one value per knot of knots_t, got "
                             f"{len(self.knots_x)} values for {len(t)} knots")
        object.__setattr__(self, "knots_t", tuple(float(v) for v in self.knots_t))
        object.__setattr__(self, "knots_x", tuple(float(v) for v in self.knots_x))

    # piecewise linear: no continuous martingale part and no jumps
    bracket_coeffs = property(lambda self: (0.0, 0.0))

    @property
    def label(self) -> str:
        return "fv"


def _law(value, name: str):
    return law_from_dict(value)


_MODELS = {
    "bm": (BrownianMotion, {"sigma": (_real, 1.0), "drift": (_real, 0.0), "x0": (_real, 0.0)}),
    "cpj": (CompoundPoissonJumps, {"rate": (_real, _REQUIRED), "law": (_law, _REQUIRED),
                                   "x0": (_real, 0.0)}),
    "jd": (JumpDiffusion, {"sigma": (_real, 1.0), "drift": (_real, 0.0),
                           "rate": (_real, _REQUIRED), "law": (_law, _REQUIRED),
                           "x0": (_real, 0.0)}),
    "fv": (FiniteVariationPath, {"knots_t": (_reals, _REQUIRED), "knots_x": (_reals, _REQUIRED)}),
}


def model_from_dict(d):
    """The path model of ``d``; a missing, unknown or mistyped key is a ``ValueError``."""
    return _from_dict(d, _MODELS, "path model")


# ---------------------------------------------------------------------------
# sample paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePath:
    """A discretized trajectory with explicit jump marks.

    ``values`` holds the post-jump (right-continuous) state at each grid
    time; ``pre_values`` differs from ``values`` only at jump indices,
    where it holds the left limit.  Each jump index carries a nonzero size,
    and the value there is exactly its left limit plus that size.  Every
    array is read-only.  The path's horizon is its last time.  A jump-free
    path from :func:`simulate` shares its ``times`` with the other jump-free
    paths simulated with the same (n_steps, T), and its ``pre_values`` is its
    ``values`` array.
    """

    times: np.ndarray
    values: np.ndarray
    pre_values: np.ndarray
    jump_indices: np.ndarray
    jump_sizes: np.ndarray
    model: Optional[object] = None
    seed: Optional[int] = None

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        # a NaN compares false both ways, so test what must hold, not what must not
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        if not (np.all(np.isfinite(self.values)) and (self.pre_values is self.values
                                                      or np.all(np.isfinite(self.pre_values)))):
            raise ValueError("path values must be finite")
        idx, sizes = np.asarray(self.jump_indices), np.asarray(self.jump_sizes)
        if len(idx) != len(sizes):
            raise ValueError("jump_indices and jump_sizes must have equal lengths")
        if len(idx) and not (np.all(sizes != 0.0) and np.array_equal(
                np.asarray(self.values)[idx], np.asarray(self.pre_values)[idx] + sizes)):
            raise ValueError("each jump must be a nonzero size, and the value at its index "
                             "exactly the left limit plus that size")
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
        it as the path's resolution scale.  It is computed once per path.
        """
        # not functools.cached_property: before Python 3.12 it holds one lock for
        # every path, so seed-pool threads would take turns over their medians
        median = self.__dict__.get("_median_move")
        if median is None:
            moves = np.abs(self.pre_values[1:] - self.values[:-1])
            median = _median(moves) if len(moves) else 0.0
            object.__setattr__(self, "_median_move", median)
        return median

    def jump_size_at(self) -> np.ndarray:
        """Jump size at every grid point, 0 where the path does not jump."""
        return _at_points(self.n_points, self.jump_indices, self.jump_sizes)

    def to_csv(self, path) -> None:
        """Write the columns time, value, pre_jump_value, jump_size to the file ``path``.

        Each field is the ``repr`` of the value as a Python float, so
        :meth:`from_csv` reads back the same bits.  Fields are separated by
        "," and every line, the header's too, ends in CRLF.
        """
        with open(path, "w", newline="\r\n") as fh:
            _write_float_rows(fh, "time,value,pre_jump_value,jump_size",
                              [self.times, self.values, self.pre_values, self.jump_size_at()])

    @classmethod
    def from_csv(cls, path) -> "SamplePath":
        """Read a file that :meth:`to_csv` wrote; a malformed file is a ``ValueError``.

        Each row must hold value = pre_jump_value + jump_size exactly, as
        :func:`simulate` builds it.  The error for a row that does not (a
        left limit apart from its value where jump_size is 0, say) names
        its line.  The times must be finite and strictly increasing, as for
        any :class:`SamplePath`.
        """
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
                t, v, p, size = map(float, row[:4])
                if v != p + size:
                    raise ValueError(f"line {reader.line_num}: value {v!r} is not "
                                     f"pre_jump_value + jump_size = {p!r} + {size!r}")
                times.append(t)
                values.append(v)
                pre.append(p)
                sizes.append(size)
        if not times:
            raise ValueError("CSV file has a header but no rows")
        sizes = np.asarray(sizes)
        jump_idx = np.nonzero(sizes != 0.0)[0]
        return cls(
            times=np.asarray(times), values=np.asarray(values),
            pre_values=np.asarray(pre), jump_indices=jump_idx,
            jump_sizes=sizes[jump_idx],
        )


def _median(moves: np.ndarray) -> float:
    """``np.median(moves)`` bit for bit, for a non-empty array without NaN, from one
    partition of ``moves`` in place.

    For an even length the lower middle is the largest value left of the upper one,
    and the two are averaged as ``np.median`` does, (lower + upper) / 2.
    """
    half = len(moves) // 2
    moves.partition(half)
    upper = float(moves[half])
    if len(moves) % 2:
        return upper
    return (float(moves[:half].max()) + upper) / 2


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=1)
def _uniform_grid(n_steps: int, T: float):
    """``linspace(0, T, n_steps + 1)``, its cell widths and their square roots, every
    array read-only, kept for the process's last (n_steps, T): the jump-free paths
    simulated on it share its times."""
    times = _read_only(np.linspace(0.0, T, n_steps + 1))
    dt = _read_only(np.diff(times))
    return times, dt, _read_only(np.sqrt(dt))


# the jump indices and sizes of every jump-free simulated path
_NO_JUMP_INDICES = _read_only(np.array([], dtype=np.int64))
_NO_JUMP_SIZES = _read_only(np.array([]))


def _is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1 and not a bool."""
    return _is_int(value) and value >= 1


def _is_horizon(value) -> bool:
    """Whether ``value`` is a real number, finite and > 0, and not a bool."""
    return _is_real(value) and math.isfinite(value) and value > 0


def _increments(rng, model, dt, sqrt_dt, out) -> np.ndarray:
    """``out`` filled with drift dt + sigma sqrt(dt) z of ``model``, z standard normal, as
    rng.normal(size=...) would give it bit for bit.

    ``dt`` and ``sqrt_dt`` are the cell widths and their square roots, per cell arrays
    or one scalar for every cell.
    """
    rng.standard_normal(out=out)
    out *= model.sigma * sqrt_dt
    out += model.drift * dt
    return out


def _poisson_events(rng, rate, T, n_paths):
    """Poisson(rate) event times on [0, T] of ``n_paths`` paths: the count of each path,
    then uniform times, sorted within each path.  Returns the counts, and the path id and
    time of each event, by path and then by time."""
    counts = rng.poisson(rate * T, size=n_paths)
    path_id = np.repeat(np.arange(n_paths), counts)
    times = rng.uniform(0.0, T, size=int(np.sum(counts)))
    order = np.lexsort((times, path_id))
    return counts, path_id[order], times[order]


def simulate(model, n_steps: int, T: float, seed: int) -> SamplePath:
    """Simulate a sample path on a uniform n_steps grid over [0, T].

    Draws, in this order: the jump count, times and sizes (at rate > 0), then
    one Gaussian increment per cell (with a diffusion or a drift).  Jump times
    are superposed as extra grid points carrying exact pre/post values, and
    the increments are drawn per cell of this refined grid, so the diffusion
    law is exact at the inserted times too; a drawn size of 0 is no jump.  A
    path that draws no jump time is on the process's shared read-only uniform
    grid, and its ``pre_values`` is its ``values`` (see the module docstring).
    ``n_steps`` must be an integer >= 1 and ``T`` finite and > 0.
    """
    if not _is_count(n_steps):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not _is_horizon(T):
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    rng = seeded_rng(seed)
    if isinstance(model, FiniteVariationPath):
        if model.knots_t[-1] < T:
            raise ValueError("finite-variation knots must cover the horizon")
        times = _uniform_grid(n_steps, T)[0]
        values = np.interp(times, model.knots_t, model.knots_x)
        return SamplePath(times=times, values=values, pre_values=values,
                          jump_indices=_NO_JUMP_INDICES, jump_sizes=_NO_JUMP_SIZES,
                          model=model, seed=seed)
    if not isinstance(model, _Parametric):
        raise ValueError(f"unknown path model {model!r}")

    times, dt, sqrt_dt = _uniform_grid(n_steps, T)
    jump_times = jump_sizes = _NO_JUMP_SIZES
    if model.rate > 0:
        jump_times = _poisson_events(rng, model.rate, T, 1)[2]
        jump_sizes = np.asarray(model.law.sample(rng, len(jump_times)), dtype=float)
        # where each jump time goes into the uniform grid
        pos = np.searchsorted(times, jump_times)
        keep = times[pos] != jump_times  # exact grid collisions (measure zero)
        keep[1:] &= np.diff(jump_times) > 0  # coincident jump times (measure zero)
        pos, jump_times, jump_sizes = pos[keep], jump_times[keep], jump_sizes[keep]
    if len(jump_times):
        # a path with jump times owns its time grid: the uniform grid refined by them
        times = np.insert(times, pos, jump_times)
        dt = np.diff(times)
        sqrt_dt = np.sqrt(dt)

    values = np.zeros(len(times))
    if model.sigma > 0 or model.drift != 0.0:
        np.cumsum(_increments(rng, model, dt, sqrt_dt, values[1:]), out=values[1:])
    values += model.x0 + 0.0  # + 0.0 turns a start of -0.0 into 0.0
    pre_values, jump_idx = values, _NO_JUMP_INDICES
    if len(jump_times):
        # each time moved right by the times inserted before it
        jump_idx = (pos + np.arange(len(pos))).astype(np.int64)
        # the cumulative jump sum at each point, and its left limit
        at = _at_points(len(times), jump_idx, jump_sizes)
        offsets = np.cumsum(at)
        pre_values = values + (offsets - at)
        values += offsets
        # post-jump state is defined as left limit plus jump, exactly
        values[jump_idx] = pre_values[jump_idx] + jump_sizes
        # a drawn size of 0 keeps its time point but is no jump, as from_csv reads it
        jumped = jump_sizes != 0.0
        jump_idx, jump_sizes = jump_idx[jumped], jump_sizes[jumped]
    return SamplePath(times=times, values=values, pre_values=pre_values,
                      jump_indices=jump_idx, jump_sizes=jump_sizes,
                      model=model, seed=seed)


# ---------------------------------------------------------------------------
# float-column CSV
# ---------------------------------------------------------------------------


def _write_float_rows(fh, header: str, columns) -> None:
    """Write ``header`` and then one row per index of the equal-length ``columns``.

    A field is the ``repr`` of the value as a Python float, fields are joined
    by "," and each line ends in "\\n", which a file opened with
    ``newline="\\r\\n"`` writes as CRLF.
    """
    fh.write(header + "\n")
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# jump sizes at the grid points
# ---------------------------------------------------------------------------


def _at_points(n: int, idx, sizes) -> np.ndarray:
    """Length-n array holding ``sizes`` at the point indices ``idx``, 0 elsewhere."""
    out = np.zeros(n)
    out[idx] = sizes
    return out

