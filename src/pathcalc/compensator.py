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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import sign_rc
from .errors import UnsupportedModelError
from .paths import BrownianMotion, JumpDiffusion, TwoPointLaw, UniformLaw, _Parametric, seeded_rng

__all__ = [
    "PoissonCounting",
    "CompoundPoissonIncreasing",
    "PathQV",
    "ConstantY",
    "StepY",
    "StateY",
    "verify_compensator",
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


def _require_increasing(model, what: str) -> None:
    if not isinstance(model, _Increasing):
        raise UnsupportedModelError(f"{what} does not support {model!r}")


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

    @property
    def h(self):
        return self._FUNCS[self.h_name]

    label = property(lambda self: f"state({self.h_name})")

    def at(self, states, times):
        return np.asarray(self.h(states), dtype=float)

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

# paths per block of the PathQV branch of verify_compensator
_BLOCK_ROWS = 1000


def _jump_events(rng, model, T, n_paths):
    """Ragged jump times/sizes J^p of A per path, flattened with path ids, time-sorted."""
    counts = rng.poisson(model.rate * T, size=n_paths)
    total = int(np.sum(counts))
    path_id = np.repeat(np.arange(n_paths), counts)
    times = rng.uniform(0.0, T, size=total)
    order = np.lexsort((times, path_id))
    return counts, path_id[order], times[order], model.jumps(rng, total)


def _segment_integral(h, counts, path_id, times, levels_before, sizes, T):
    """Per-path exact integral of h(level process) dt for a pure-jump state.

    ``levels_before[k]`` is the state just before event k; the state is
    piecewise constant between events.
    """
    n_paths = len(counts)
    out = np.zeros(n_paths)
    starts = np.concatenate(([0], np.cumsum(counts)))
    # initial segment: state 0 from 0 to the first event (or T)
    first_t = np.full(n_paths, T)
    has = counts > 0
    first_t[has] = times[starts[:-1][has]]
    out += np.asarray(h(np.zeros(n_paths)), dtype=float) * first_t
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
        np.add.at(out, path_id, np.asarray(h(level_after), dtype=float) * (next_t - times))
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


def verify_compensator(
    model, y, n_paths: int = 10_000, T: float = 1.0, seed: int = 0,
    rate_factor: float = 1.0,
) -> CompensatorVerdict:
    """Monte Carlo check of E int Y dA == E int Y dA^p for a catalog pair.

    With ``integral`` = int_0^T Y_s ds and ``jump_sum`` the sum of Y_s J_s^p
    over the jumps of A up to T, per path int Y dA = c integral + jump_sum and
    int Y dA^p = (c + rate E[J^p]) integral.  Each model samples only these
    two; :class:`PathQV` sums ``integral`` over 512 equal time steps.
    ``rate_factor`` scales the closed-form side only; a value != 1 is the
    deliberate negative control (the check must fail).

    A :class:`PathQV` pair builds its continuous paths in blocks of
    ``_BLOCK_ROWS`` rows: each block draws its normals from the pair's one
    generator, in path order, so the draws, and the jumps drawn after all of
    them, are those of a single draw for all paths.  The paths themselves
    stay whole (the jumps read the state at their cell), so a pair holds
    about ``n_paths * 513 * 8`` bytes, 41 MB at 10^4 paths, plus one block.
    """
    _require_increasing(model, "verify_compensator")
    rng = seeded_rng(seed)
    n_steps = 512

    if isinstance(model, PathQV):  # discretised continuous part, exact jumps
        sigma, drift = model.model.sigma, model.model.drift
        ts = np.linspace(0.0, T, n_steps + 1)
        dt = T / n_steps
        x = np.zeros((n_paths, n_steps + 1))
        integral = np.empty(n_paths)
        for r in range(0, n_paths, _BLOCK_ROWS):
            block = x[r:r + _BLOCK_ROWS]
            if sigma > 0 or drift != 0.0:
                incr = drift * dt + sigma * np.sqrt(dt) * rng.normal(size=(len(block), n_steps))
                np.cumsum(incr, axis=1, out=block[:, 1:])
            integral[r:r + len(block)] = np.sum(y.at(block[:, :-1], ts[:-1]), axis=1) * dt
        jump_sum = np.zeros(n_paths)
        if model.rate > 0:
            counts, path_id, times, jumps = _jump_events(rng, model, T, n_paths)
            # the state driving Y is the continuous component, read at the
            # left edge of the grid cell holding the jump; it is adapted and
            # left-continuous, and both sides use the same state
            cell = np.minimum((times / dt).astype(np.int64), n_steps - 1)
            np.add.at(jump_sum, path_id, y.at(x[path_id, cell], times) * jumps)
    else:  # exact pure-jump: A is piecewise constant between its Poisson events
        counts, path_id, times, sizes = _jump_events(rng, model, T, n_paths)
        before = _ragged_prefix_before(counts, sizes)
        jump_sum = np.zeros(n_paths)
        np.add.at(jump_sum, path_id, y.at(before, times) * sizes)
        integral = y.time_integral(T)
        integral = (np.full(n_paths, integral) if integral is not None
                    else _segment_integral(y.h, counts, path_id, times, before, sizes, T))

    lhs = model.c * integral + jump_sum
    rhs = model.compensator_slope(rate_factor) * integral
    return _verdict(model, y, lhs, rhs)


# ---------------------------------------------------------------------------
# martingale increments of A - A^p
# ---------------------------------------------------------------------------


def martingale_check(model, n_paths: int = 10_000, T: float = 1.0, seed: int = 0) -> dict:
    """Sample-mean increments of A - A^p over [0, T/2] and [T/2, T], with their standard
    errors.

    Each increment draws its jump counts, then its jumps, from one generator
    keyed by ``seed``; a compensator run grades each at 3 SE.
    """
    _require_increasing(model, "martingale_check")
    if not T > 0:
        raise ValueError(f"martingale_check needs T > 0, got {T}")
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
