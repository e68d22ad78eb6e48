"""Closed-form predictable compensators and their Monte Carlo verification.

Every increasing process in the catalog has the form

    A_t = c t + sum_{jump times s <= t} J_s^p

with Poisson(rate) jump times and i.i.d. jumps J of a given law, so its
compensator is A^p_t = (c + rate E[J^p]) t.  A Poisson counter has p = 0,
a compound Poisson sum of nonnegative jumps p = 1, the quadratic variation
of a jump diffusion p = 2 and c = sigma^2, and a deterministic process
c = slope and no jumps.  The verification estimates E int Y dA and
E int Y dA^p with paired sampling, so the verdict compares the mean
difference against three standard errors of the paired difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import sign_rc
from .errors import UnsupportedModelError
from .paths import BrownianMotion, JumpDiffusion, TwoPointLaw, UniformLaw, _Parametric, seeded_rng

__all__ = [
    "PoissonCounting",
    "CompoundPoissonIncreasing",
    "PathQV",
    "DeterministicIncreasing",
    "ConstantY",
    "StepY",
    "StateY",
    "compensator_closed_form",
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

    Each subclass answers ``c`` (None when A has no continuous part),
    ``rate``, ``law`` (None when there are no jumps or p = 0) and, when it
    has jumps, ``p``.
    """

    def compensator_slope(self, rate_factor: float = 1.0) -> float:
        """Slope c + rate E[J^p] of t -> A^p_t, scaled by ``rate_factor``.

        A pure-jump process (c None) scales its intensity, rate_factor * rate;
        one with a continuous part scales the whole slope.
        """
        if self.c is None:
            return rate_factor * self.rate * self._jump_moment()
        jump = self.rate * self._jump_moment() if self.law is not None else 0.0
        return rate_factor * (self.c + jump)

    def _jump_moment(self) -> float:
        if self.p == 0:
            return 1.0
        return self.law.mean if self.p == 1 else self.law.second_moment

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

    c = None
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

    c = None
    p = 1
    label = property(lambda self: f"compound_poisson_increasing(rate={self.rate})")


@dataclass(frozen=True)
class PathQV(_Increasing):
    """Quadratic variation [X] of a diffusion-with-jumps path model: c = sigma^2, p = 2."""

    model: object

    def __post_init__(self):
        if not isinstance(self.model, _Parametric):
            raise ValueError("PathQV supports BM, jump diffusion, or compound Poisson models")

    c = property(lambda self: self.model.sigma**2)
    rate = property(lambda self: self.model.rate)
    law = property(lambda self: self.model.law)
    p = 2
    label = property(lambda self: f"path_qv({self.model.label})")


@dataclass(frozen=True)
class DeterministicIncreasing(_Increasing):
    slope: float = 1.0

    def __post_init__(self):
        if self.slope < 0:
            raise ValueError("slope must be >= 0")

    c = property(lambda self: self.slope)
    rate = 0.0
    law = None
    label = property(lambda self: f"deterministic(slope={self.slope})")


def compensator_closed_form(model) -> Callable[[np.ndarray], np.ndarray]:
    """The predictable compensator t -> A^p_t of a catalog model."""
    _require_increasing(model, "compensator_closed_form")
    coeff = model.compensator_slope()
    return lambda t: coeff * np.asarray(t, dtype=float)


# ---------------------------------------------------------------------------
# predictable test processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantY:
    c: float = 1.0

    label = property(lambda self: f"const({self.c})")


@dataclass(frozen=True)
class StepY:
    """Y_t = 1{t <= tau} with deterministic tau."""

    tau: float

    label = property(lambda self: f"step(tau={self.tau})")


@dataclass(frozen=True)
class StateY:
    """Y_s = h(X_{s-}) with bounded h from a small named catalog."""

    h_name: str

    _FUNCS = {
        "cos": np.cos,
        "sign": sign_rc,
        "tanh": np.tanh,
    }

    def __post_init__(self):
        if self.h_name not in self._FUNCS:
            raise ValueError(f"unknown bounded state function {self.h_name!r}")

    @property
    def h(self):
        return self._FUNCS[self.h_name]

    label = property(lambda self: f"state({self.h_name})")


def catalog_models():
    return [
        PoissonCounting(rate=3.0),
        CompoundPoissonIncreasing(rate=2.0, law=UniformLaw(0.0, 1.0)),
        CompoundPoissonIncreasing(rate=1.5, law=TwoPointLaw(0.4, 0.5, 2.0)),
        PathQV(BrownianMotion(sigma=1.0)),
        PathQV(JumpDiffusion(sigma=0.8, drift=0.1, rate=1.0, law=UniformLaw(-1.0, 1.0))),
    ]


def catalog_test_processes(T: float = 1.0):
    return [ConstantY(1.0), ConstantY(0.0), StepY(tau=T / 2), StateY("cos"), StateY("sign")]


# ---------------------------------------------------------------------------
# paired Monte Carlo for E int Y dA vs E int Y dA^p
# ---------------------------------------------------------------------------


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
    n_paths: int
    passed: bool

    bound = property(lambda self: _se_bound(self.se_combined))  # largest |diff| that passes

    def to_json_dict(self):
        return {
            "model": self.model_label, "Y": self.y_label,
            "lhs_mean": self.lhs_mean, "rhs_mean": self.rhs_mean,
            "diff": self.diff, "se_combined": self.se_combined,
            "n_paths": self.n_paths, "passed": self.passed,
        }


def _se_bound(se: float) -> float:
    """Largest |mean| that passes: three standard errors plus a 1e-12 rounding floor."""
    return 3.0 * se + 1e-12


def _graded_mean(x):
    """Mean, standard error std(ddof=1) / sqrt(n) (0 for one draw) and verdict of ``x``."""
    n = len(x)
    se = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    mean = float(np.mean(x))
    return mean, se, abs(mean) <= _se_bound(se)


def _verdict(model, y, lhs, rhs):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    mean_diff, se, passed = _graded_mean(lhs - rhs)
    return CompensatorVerdict(
        model_label=model.label, y_label=y.label,
        lhs_mean=float(np.mean(lhs)), rhs_mean=float(np.mean(rhs)),
        diff=mean_diff, se_combined=se, n_paths=len(lhs), passed=passed,
    )


def verify_compensator(
    model, y, n_paths: int = 10_000, T: float = 1.0, seed: int = 0,
    rate_factor: float = 1.0,
) -> CompensatorVerdict:
    """Monte Carlo check of E int Y dA == E int Y dA^p for a catalog pair.

    A continuous part of A, and a state Y of a deterministic A, is
    integrated over 512 equal time steps.  ``rate_factor`` scales the rate
    used in the closed-form side only; a value != 1 is the deliberate
    negative control (the check must fail).
    """
    _require_increasing(model, "verify_compensator")
    rng = seeded_rng(seed)
    n_steps = 512

    if isinstance(model, DeterministicIncreasing):  # closed form: A is not random
        if isinstance(y, ConstantY):
            val = y.c * model.c * T
        elif isinstance(y, StepY):
            val = model.c * min(y.tau, T)
        else:
            ts = np.linspace(0, T, n_steps + 1)
            state = model.c * ts[:-1]
            val = float(np.sum(np.asarray(y.h(state), dtype=float) * model.c * np.diff(ts)))
        lhs = np.full(2, val)
        rhs = np.full(2, rate_factor * val)
        return _verdict(model, y, lhs, rhs)

    if isinstance(model, PathQV):  # discretised continuous part, exact jumps
        sigma, drift = model.model.sigma, model.model.drift
        ts = np.linspace(0.0, T, n_steps + 1)
        dt = T / n_steps
        x = np.zeros((n_paths, n_steps + 1))
        if sigma > 0 or drift != 0.0:
            incr = drift * dt + sigma * np.sqrt(dt) * rng.normal(size=(n_paths, n_steps))
            x[:, 1:] = np.cumsum(incr, axis=1)
        jump_lhs = np.zeros(n_paths)
        if model.rate > 0:
            counts, path_id, times, jumps = _jump_events(rng, model, T, n_paths)
            # the state driving Y is the continuous component, read at the
            # left edge of the grid cell holding the jump; it is adapted and
            # left-continuous, and both sides below use the same state
            cell = np.minimum((times / dt).astype(np.int64), n_steps - 1)
            state_before = x[path_id, cell]
            np.add.at(jump_lhs, path_id, _y_at(y, state_before, times) * jumps)
        quad = np.sum(_y_at(y, x[:, :-1], ts[:-1]), axis=1) * dt
        lhs = model.c * quad + jump_lhs
        rhs = model.compensator_slope(rate_factor) * quad
        return _verdict(model, y, lhs, rhs)

    # exact pure-jump: A is piecewise constant between its Poisson events
    counts, path_id, times, sizes = _jump_events(rng, model, T, n_paths)
    comp_coeff = model.compensator_slope(rate_factor)
    before = _ragged_prefix_before(counts, sizes)
    lhs = np.zeros(n_paths)
    np.add.at(lhs, path_id, _y_at(y, before, times) * sizes)
    if isinstance(y, ConstantY):
        rhs = np.full(n_paths, y.c * comp_coeff * T)
    elif isinstance(y, StepY):
        rhs = np.full(n_paths, comp_coeff * min(y.tau, T))
    else:  # a StateY: _y_at rejects any other test process
        rhs = comp_coeff * _segment_integral(y.h, counts, path_id, times, before, sizes, T)
    return _verdict(model, y, lhs, rhs)


def _y_at(y, states, times):
    """Y_s at the left-limit states X_{s-} and times s, shaped like ``states``."""
    if isinstance(y, ConstantY):
        return np.full(np.shape(states), y.c, dtype=float)
    if isinstance(y, StepY):
        return np.broadcast_to((times <= y.tau).astype(float), np.shape(states))
    if isinstance(y, StateY):
        return np.asarray(y.h(states), dtype=float)
    raise ValueError(f"unknown test process {y!r}")


# ---------------------------------------------------------------------------
# martingale increments of A - A^p
# ---------------------------------------------------------------------------


def martingale_check(
    model, n_paths: int = 10_000, checkpoints=(0.0, 0.5, 1.0), seed: int = 0,
    rate_factor: float = 1.0,
) -> dict:
    """Sample-mean increments of A - A^p between checkpoints, graded at 3 SE.

    ``rate_factor`` != 1 corrupts the closed form (negative control).
    """
    _require_increasing(model, "martingale_check")
    rng = seeded_rng(seed)
    cps = [float(t) for t in checkpoints]
    if any(cps[i + 1] <= cps[i] for i in range(len(cps) - 1)) or cps[0] < 0:
        raise ValueError("checkpoints must be increasing and nonnegative")

    results = []
    all_pass = True
    for s, t in zip(cps[:-1], cps[1:]):
        span = t - s
        incr = np.full(n_paths, (model.c or 0.0) * span)
        if model.rate > 0:
            counts = rng.poisson(model.rate * span, size=n_paths)
            jumps = model.jumps(rng, int(np.sum(counts)))
            np.add.at(incr, np.repeat(np.arange(n_paths), counts), jumps)
        comp = model.compensator_slope(rate_factor) * span

        mean, se, ok = _graded_mean(incr - comp)
        all_pass = all_pass and ok
        results.append({"s": s, "t": t, "mean_increment": mean, "se": se, "passed": ok})
    return {"model": model.label, "increments": results, "passed": all_pass}
