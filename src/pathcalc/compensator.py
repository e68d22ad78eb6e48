"""Closed-form predictable compensators and their Monte Carlo verification.

Every increasing process in the catalog has the form

    A_t = c t + sum_{jump times s <= t} J_s^p

with Poisson(rate) jump times and i.i.d. jumps J of a given law, so its
compensator is A^p_t = (c + rate E[J^p]) t.  A Poisson counter has p = 0,
a compound Poisson sum of nonnegative jumps p = 1, both with c = 0, and the
quadratic variation of a jump diffusion p = 2 and c = sigma^2: its slope is
the sum of the path model's ``bracket_coeffs``.  The verification estimates
E int Y dA and E int Y dA^p with paired sampling, so the verdict compares
the mean difference against three standard errors of the paired difference.
A process draws its paths once, from one seed, for all the Y that it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import sign_rc
from .errors import UnsupportedModelError
from .paths import (BrownianMotion, JumpDiffusion, TwoPointLaw, UniformLaw, _increments, _is_count,
                    _is_horizon, _is_seed, _Parametric, _poisson_events, seeded_rng)

__all__ = [
    "PoissonCounting",
    "CompoundPoissonIncreasing",
    "PathQV",
    "ConstantY",
    "StepY",
    "StateY",
    "verify_compensator",
    "verify_process",
    "martingale_check",
    "CompensatorVerdict",
    "catalog_models",
    "catalog_test_processes",
]


# ---------------------------------------------------------------------------
# increasing process models
# ---------------------------------------------------------------------------


class _Increasing:
    """A_t = c t + sum J^p (see the module docstring).

    Each subclass answers ``c`` (0.0 when A has no continuous part),
    ``rate``, ``law`` (None when there are no jumps or p = 0) and ``p``;
    :class:`PathQV` (p = 2) reads its slope off its path model.
    """

    def compensator_slope(self, rate_factor: float = 1.0) -> float:
        """Slope c + rate E[J^p] of t -> A^p_t, scaled by ``rate_factor``."""
        return rate_factor * (self.c + self.rate * (1.0 if self.p == 0 else self.law.mean))

    def jumps(self, rng, n: int) -> np.ndarray:
        """n i.i.d. jumps J^p of A; no draw when p = 0."""
        if self.p == 0:
            return np.ones(n)
        return np.asarray(self.law.sample(rng, n), dtype=float) ** self.p


def _check_arguments(model, what: str, n_paths, T, seed) -> None:
    """Reject a model that is not a catalog increasing process, and a path count, a
    horizon T and a seed that :func:`~pathcalc.paths.simulate` would reject."""
    if not isinstance(model, _Increasing):
        raise UnsupportedModelError(f"{what} does not support {model!r}")
    if not _is_count(n_paths):
        raise ValueError(f"{what} needs an integer n_paths >= 1, got {n_paths!r}")
    if not _is_horizon(T):
        raise ValueError(f"{what} needs a finite T > 0, got {T!r}")
    if not _is_seed(seed):
        raise ValueError(f"{what} needs an integer seed in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class PoissonCounting(_Increasing):
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be > 0")

    c = 0.0
    law = None
    p = 0
    label = property(lambda self: f"poisson_counting(rate={self.rate})")


@dataclass(frozen=True)
class CompoundPoissonIncreasing(_Increasing):
    rate: float
    law: object

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if not self.law.nonnegative():
            raise ValueError("increasing process needs a jump law supported on [0, inf)")

    c = 0.0
    p = 1
    label = property(lambda self: f"compound_poisson_increasing(rate={self.rate})")


@dataclass(frozen=True)
class PathQV(_Increasing):
    """Quadratic variation [X] of a diffusion-with-jumps path model: c = sigma^2, p = 2.

    Its compensator is the model's closed-form bracket <X>, so its slope is the sum of
    the model's ``bracket_coeffs``.
    """

    model: object

    def __post_init__(self):
        if not isinstance(self.model, _Parametric):
            raise ValueError("PathQV supports BM, jump diffusion, or compound Poisson models")

    c = property(lambda self: self.model.sigma**2)
    rate = property(lambda self: self.model.rate)
    law = property(lambda self: self.model.law)
    p = 2
    label = property(lambda self: f"path_qv({self.model.label})")

    def compensator_slope(self, rate_factor: float = 1.0) -> float:
        return rate_factor * sum(self.model.bracket_coeffs)


# ---------------------------------------------------------------------------
# predictable test processes
# ---------------------------------------------------------------------------
# Each answers at(states, times), Y_s at the left-limit states X_{s-} and times s, shaped
# like states, and time_integral(T), int_0^T Y_s ds, or None where that reads the path.
# A Y whose time_integral is not None reads no state: a PathQV process whose Y all have one
# draws no normals.


@dataclass(frozen=True)
class ConstantY:
    c: float = 1.0

    label = property(lambda self: f"const({self.c})")

    def at(self, states, times):
        return np.full(np.shape(states), self.c, dtype=float)

    def time_integral(self, T: float) -> float:
        return self.c * T


@dataclass(frozen=True)
class StepY:
    """Y_t = 1{t <= tau} with deterministic tau."""

    tau: float

    label = property(lambda self: f"step(tau={self.tau})")

    def at(self, states, times):
        return np.broadcast_to((times <= self.tau).astype(float), np.shape(states))

    def time_integral(self, T: float) -> float:
        return min(self.tau, T)


@dataclass(frozen=True)
class StateY:
    """Y_s = h(X_{s-}) with bounded h from a small named catalog."""

    h_name: str

    _FUNCS = {
        "cos": np.cos,
        "sign": sign_rc,
    }

    def __post_init__(self):
        if self.h_name not in self._FUNCS:
            raise ValueError(f"unknown bounded state function {self.h_name!r}")

    label = property(lambda self: f"state({self.h_name})")

    def at(self, states, times):
        return np.asarray(self._FUNCS[self.h_name](states), dtype=float)

    def time_integral(self, T: float) -> None:
        return None  # int h(X_{s-}) ds reads the path


def catalog_models():
    return [
        PoissonCounting(rate=3.0),
        CompoundPoissonIncreasing(rate=2.0, law=UniformLaw(0.0, 1.0)),
        CompoundPoissonIncreasing(rate=1.5, law=TwoPointLaw(0.4, 0.5, 2.0)),
        PathQV(BrownianMotion(sigma=1.0)),
        PathQV(JumpDiffusion(sigma=0.8, drift=0.1, rate=1.0, law=UniformLaw(-1.0, 1.0))),
    ]


def catalog_test_processes(T: float = 1.0):
    return [ConstantY(1.0), StepY(tau=T / 2), StateY("cos"), StateY("sign")]


# ---------------------------------------------------------------------------
# paired Monte Carlo for E int Y dA vs E int Y dA^p
# ---------------------------------------------------------------------------

# paths per block of the PathQV branch of verify_process: at 128 rows a block's normals,
# states and one Y on it take 0.5 MiB each, and fewer rows no longer lower a run's peak memory
_BLOCK_ROWS = 128


def _jump_events(rng, model, T, n_paths):
    """The Poisson events of A per path (see :func:`~pathcalc.paths._poisson_events`)
    and then their jumps J^p."""
    counts, path_id, times = _poisson_events(rng, model.rate, T, n_paths)
    return counts, path_id, times, model.jumps(rng, len(times))


def _segment_integral(y, counts, path_id, times, levels_before, sizes, T):
    """Per-path exact integral of Y_s ds for a Y that reads only the pure-jump state.

    ``levels_before[k]`` is the state just before event k; the state is
    piecewise constant between events, and Y is read at each piece's start.
    """
    n_paths = len(counts)
    out = np.zeros(n_paths)
    starts = np.concatenate(([0], np.cumsum(counts)))
    # initial segment: state 0 from 0 to the first event (or T)
    first_t = np.full(n_paths, T)
    has = counts > 0
    first_t[has] = times[starts[:-1][has]]
    out += y.at(np.zeros(n_paths), np.zeros(n_paths)) * first_t
    total = len(times)
    if total:
        ends = np.cumsum(counts) - 1
        is_last = np.zeros(total, dtype=bool)
        is_last[ends[has]] = True
        next_t = np.empty(total)
        next_t[:-1] = times[1:]
        next_t[-1] = T
        next_t[is_last] = T
        level_after = levels_before + sizes
        np.add.at(out, path_id, y.at(level_after, times) * (next_t - times))
    return out


def _ragged_prefix_before(counts, values):
    """Exclusive prefix sums of values within each path segment."""
    if len(values) == 0:
        return values
    cum = np.cumsum(values)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    seg_start_cum = np.concatenate(([0.0], cum))[starts]
    seg_id = np.repeat(np.arange(len(counts)), counts)
    return cum - values - seg_start_cum[seg_id]


@dataclass(frozen=True)
class CompensatorVerdict:
    model_label: str
    y_label: str
    lhs_mean: float
    rhs_mean: float
    diff: float
    se_combined: float
    passed: bool

    def to_json_dict(self):
        """The labels and the means; the verdict is ``diff`` against ``_se_bound(se_combined)``."""
        return {
            "model": self.model_label, "Y": self.y_label,
            "lhs_mean": self.lhs_mean, "rhs_mean": self.rhs_mean,
            "diff": self.diff, "se_combined": self.se_combined,
        }


def _se_bound(se: float) -> float:
    """Largest |mean| that passes: three standard errors plus a 1e-12 rounding floor."""
    return 3.0 * se + 1e-12


def _mean_se(x):
    """Mean and standard error std(ddof=1) / sqrt(n) (0 for one draw) of ``x``."""
    n = len(x)
    se = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(x)), se


def _verdict(model, y, lhs, rhs):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    mean_diff, se = _mean_se(lhs - rhs)
    return CompensatorVerdict(
        model_label=model.label, y_label=y.label,
        lhs_mean=float(np.mean(lhs)), rhs_mean=float(np.mean(rhs)),
        diff=mean_diff, se_combined=se, passed=abs(mean_diff) <= _se_bound(se),
    )


def _path_qv_terms(model, ys, n_paths, T, seed):
    """Per Y of ``ys``, ``integral`` and ``jump_sum`` (see :func:`verify_process`) of a
    :class:`PathQV` process: the continuous part on 512 equal time steps, the jumps exact.
    Every Y reads the same blocks of paths."""
    n_steps = 512
    ts = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    integrals = np.empty((len(ys), n_paths))
    jump_sums = np.zeros((len(ys), n_paths))
    if model.rate > 0:
        # the jumps come from the seed's second stream, 2^128 draws past the normals'
        jump_rng = np.random.Generator(seeded_rng(seed).bit_generator.jumped())
        _, path_id, times, jumps = _jump_events(jump_rng, model, T, n_paths)
        # the state driving Y is the continuous component, read at the left edge of the
        # grid cell holding the jump; it is adapted and left-continuous, and both sides
        # use the same state
        cell = np.minimum((times / dt).astype(np.int64), n_steps - 1)
    rows = min(_BLOCK_ROWS, n_paths)
    # the normals are drawn only where some Y reads them: a Y with a closed-form time
    # integral reads no state, and a model with no continuous part keeps it at 0, so a
    # process whose Y all read no state, or that has no continuous part, gets a read-only
    # zero block
    draws = ((model.model.sigma > 0 or model.model.drift != 0.0)
             and any(y.time_integral(T) is None for y in ys))
    if draws:
        rng = seeded_rng(seed)
        normals = np.empty((rows, n_steps))
        x = np.zeros((rows, n_steps + 1))
    else:
        x = np.broadcast_to(0.0, (rows, n_steps + 1))
    for r in range(0, n_paths, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, n_paths - r)
        block = x[:k]
        if draws:
            incr = _increments(rng, model.model, dt, math.sqrt(dt), normals[:k])
            np.cumsum(incr, axis=1, out=block[:, 1:])
        if model.rate > 0:
            # the events are sorted by path, so the block's are one slice
            ev = slice(*np.searchsorted(path_id, (r, r + k)))
            ids = path_id[ev]
            jump_states = block[ids - r, cell[ev]]
        for y, integral, jump_sum in zip(ys, integrals, jump_sums):
            integral[r:r + k] = np.sum(y.at(block[:, :-1], ts[:-1]), axis=1) * dt
            if model.rate > 0:
                np.add.at(jump_sum, ids, y.at(jump_states, times[ev]) * jumps[ev])
    return list(zip(integrals, jump_sums))


def _pure_jump_terms(model, ys, n_paths, T, seed):
    """Per Y of ``ys``, ``integral`` and ``jump_sum`` (see :func:`verify_process`) of a
    pure-jump process, exact: A is piecewise constant between its Poisson events, drawn
    once for every Y."""
    counts, path_id, times, sizes = _jump_events(seeded_rng(seed), model, T, n_paths)
    before = _ragged_prefix_before(counts, sizes)
    for y in ys:
        jump_sum = np.zeros(n_paths)
        np.add.at(jump_sum, path_id, y.at(before, times) * sizes)
        integral = y.time_integral(T)
        integral = (np.full(n_paths, integral) if integral is not None
                    else _segment_integral(y, counts, path_id, times, before, sizes, T))
        yield integral, jump_sum


def verify_process(
    model, ys, n_paths: int = 10_000, T: float = 1.0, seed: int = 0,
    rate_factor: float = 1.0,
) -> list:
    """Monte Carlo checks of E int Y dA == E int Y dA^p for a catalog process and each Y
    of ``ys``, on one draw of paths: one verdict per Y, in order.

    With ``integral`` = int_0^T Y_s ds and ``jump_sum`` the sum of Y_s J_s^p
    over the jumps of A up to T, per path int Y dA = c integral + jump_sum and
    int Y dA^p = (c + rate E[J^p]) integral.  Each model samples only these
    two; :class:`PathQV` sums ``integral`` over 512 equal time steps.
    ``rate_factor`` scales the closed-form side only; a value != 1 is the
    deliberate negative control (the check must fail).

    Every Y reads the same paths, drawn from ``seed`` alone, so the verdict of
    each Y equals ``verify_compensator(model, y, seed=seed)``'s bit for bit,
    and the checks of one call are dependent.  A pure-jump process draws its
    Poisson events once, from ``seeded_rng(seed)``.  A :class:`PathQV` process
    with jumps draws all of its jump events first, from
    ``Generator(seeded_rng(seed).bit_generator.jumped())``: a stream that is a
    function of the seed alone and never overlaps the normals.  It then builds
    its continuous paths in blocks of ``_BLOCK_ROWS`` rows, each drawing its
    normals from ``seeded_rng(seed)`` in path order, so the normals are those
    of a single draw for all paths.  On each block, every Y sums its
    ``integral`` and adds its paths' jumps, read at their cells, to its
    ``jump_sum``; then the next block overwrites it.  So, whatever ``n_paths``
    is, a process holds one block: its normals and its states, two reused
    arrays of about 0.5 MiB each, and one Y on it at a time, plus the jump
    events and a few arrays of ``n_paths`` per Y.  The normals are drawn only
    if some Y reads the state, that is, has no closed-form ``time_integral``;
    otherwise neither array is allocated, and ``integral`` is still the
    512-step sum.

    Raises ValueError unless ``n_paths`` is an integer >= 1, ``T`` a finite number > 0
    and ``seed`` an integer in [0, 2**64).
    """
    _check_arguments(model, "verify_process", n_paths, T, seed)
    terms = (_path_qv_terms if isinstance(model, PathQV) else _pure_jump_terms)(
        model, ys, n_paths, T, seed)
    slope = model.compensator_slope(rate_factor)
    return [_verdict(model, y, model.c * integral + jump_sum, slope * integral)
            for y, (integral, jump_sum) in zip(ys, terms)]


def verify_compensator(
    model, y, n_paths: int = 10_000, T: float = 1.0, seed: int = 0,
    rate_factor: float = 1.0,
) -> CompensatorVerdict:
    """Monte Carlo check of E int Y dA == E int Y dA^p for one catalog pair: the one-Y
    case of :func:`verify_process`, whose docstring states the arguments that it rejects.

    The pair draws its paths from ``seed`` by the rule of a process, so its verdict is
    the one that Y gets from a :func:`verify_process` call at the same seed with any
    other Y beside it; a Y that reads no state draws no normals here.
    """
    return verify_process(model, [y], n_paths=n_paths, T=T, seed=seed,
                          rate_factor=rate_factor)[0]


# ---------------------------------------------------------------------------
# martingale increments of A - A^p
# ---------------------------------------------------------------------------


def martingale_check(model, n_paths: int = 10_000, T: float = 1.0, seed: int = 0) -> dict:
    """Sample-mean increments of A - A^p over [0, T/2] and [T/2, T], with their standard
    errors.

    Each increment draws its jump counts, then its jumps, from one generator
    keyed by ``seed``; a compensator run grades each at 3 SE.  Raises ValueError on the
    arguments that :func:`verify_compensator` rejects.
    """
    _check_arguments(model, "martingale_check", n_paths, T, seed)
    rng = seeded_rng(seed)
    increments = []
    for s, t in ((0.0, T / 2), (T / 2, T)):
        span = t - s
        incr = np.full(n_paths, model.c * span)
        if model.rate > 0:
            counts = rng.poisson(model.rate * span, size=n_paths)
            jumps = model.jumps(rng, int(np.sum(counts)))
            np.add.at(incr, np.repeat(np.arange(n_paths), counts), jumps)
        mean, se = _mean_se(incr - model.compensator_slope() * span)
        increments.append({"s": s, "t": t, "mean_increment": mean, "se": se})
    return {"model": model.label, "increments": increments}
