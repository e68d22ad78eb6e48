"""Real-line calculus of two-index functionals.

A two-index functional F(x, y) with F(x, x) = 0 plays the role of a
generalized increment; it is any vectorized callable F(x, y)
(:data:`TwoIndexFn`).  This module provides the constructions built from
scalar functions (increment, first-order linear remainder, squared
increment), iterated incremental ratios, partition sums and their
refinement limits, a sup estimate of the ratios, vanishing-step
derivative limits, and a Taylor-style expansion check with an
independently computed remainder.

Everything here is pure: types are frozen dataclasses, a partition's
points are a read-only float array, and operations are functions of their
inputs only.  Refinement limits read the nested dyadic chain, which builds
each partition when it is read, so a limit that converges early builds no
finer level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "ScalarFn",
    "TwoIndexFn",
    "Partition",
    "LimitResult",
    "DerivativeResult",
    "ExpansionReport",
    "increment_fn",
    "linear_remainder",
    "squared_increment",
    "partition_sum",
    "summability_limit",
    "lipschitz_scan",
    "derivative_limit",
    "taylor_check",
]


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFn:
    """A real function with optional declared derivatives and a convexity flag.

    ``derivatives`` maps order j to a callable for the a.e. j-th derivative;
    at kinks the right-continuous version is declared (that convention is
    what the decomposition code relies on).  The decompositions read only
    these: an f that declares no derivative of an order that they need is
    not applicable there.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivatives: Mapping[int, Callable] = field(default_factory=dict)
    convex: bool = False

    def __call__(self, x):
        return self.fn(x)

    def derivative(self, order: int):
        return self.derivatives.get(order)


# ---------------------------------------------------------------------------
# two-index functionals
# ---------------------------------------------------------------------------


# a functional F(x, y) vanishing on the diagonal, vectorized over x and y
TwoIndexFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def increment_fn(f: ScalarFn) -> TwoIndexFn:
    """F(x, y) = f(y) - f(x)."""
    return lambda x, y: np.asarray(f(y)) - np.asarray(f(x))


def linear_remainder(f: ScalarFn, g: ScalarFn) -> TwoIndexFn:
    """F(x, y) = f(y) - f(x) - g(x)(y - x).

    Nonnegative exactly when f is convex and g lies between the one-sided
    derivatives of f.
    """
    return lambda x, y: (np.asarray(f(y)) - np.asarray(f(x))
                         - np.asarray(g(x)) * (np.asarray(y) - np.asarray(x)))


def squared_increment() -> TwoIndexFn:
    """F(x, y) = (y - x)^2, whose pathwise sums are realized quadratic variation."""
    return lambda x, y: (np.asarray(y) - np.asarray(x)) ** 2


# ---------------------------------------------------------------------------
# incremental ratios
# ---------------------------------------------------------------------------


def _raw_ratio(F: TwoIndexFn, k: int, xs, h):
    """k-th iterated incremental ratio of F at xs with steps h = (h_1 ... h_k).

    The first ratio is F(x, x + h_1) / h_1; each further order differences
    the previous one over a step h_j and divides by h_j.  Vectorized over
    xs.  An overflow comes back as inf or nan, which the scans and the
    derivative limits handle themselves.
    """

    def ratio(j: int, pts):
        if j == 1:
            return np.asarray(F(pts, pts + h[0]), dtype=float) / h[0]
        return (ratio(j - 1, pts + h[j - 1]) - ratio(j - 1, pts)) / h[j - 1]

    return ratio(k, np.asarray(xs, dtype=float))


# ---------------------------------------------------------------------------
# partitions and the dyadic refinement chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Partition:
    """A finite collection of points inside a finite interval (a, b).

    ``points`` is a read-only float array, a copy of the one given.  It is
    one-dimensional, sorted, none NaN (ties allowed; tied cells contribute
    F(x, x) = 0), and lies strictly inside the interval.  Endpoint cells are
    added by :func:`partition_sum`, so the increment functional telescopes
    exactly to f(b) - f(a) at every refinement level.  Partitions compare by
    identity, as an array has no truth value for ``==``.
    """

    a: float
    b: float
    points: np.ndarray

    def __post_init__(self):
        # each check is a comparison that NaN fails
        if not (-math.inf < self.a < self.b < math.inf):
            raise ValueError("partition needs finite a < b")
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1:
            raise ValueError("partition points must be one-dimensional")
        if not np.all(pts[:-1] <= pts[1:]):
            raise ValueError("partition points must be sorted and not NaN")
        if pts.size and not (self.a < pts[0] and pts[-1] < self.b):
            raise ValueError("partition points must lie strictly inside (a, b)")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def cells(self) -> np.ndarray:
        return np.concatenate(([self.a], self.points, [self.b]))


def _dyadic_chain(a: float, b: float, n_levels: int):
    """Nested dyadic partitions of (a, b), coarse to fine: level L has the 2^L - 1
    interior L-adic points."""
    for level in range(n_levels):
        n = 2**level
        yield Partition(a, b, a + (b - a) * np.arange(1, n) / n)


def partition_sum(F: TwoIndexFn, part: Partition) -> float:
    """Sum of F over consecutive cells of the partition augmented with {a, b}."""
    edges = part.cells()
    return float(np.sum(F(edges[:-1], edges[1:])))


# ---------------------------------------------------------------------------
# refinement limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitResult:
    estimate: float
    converged: bool


def summability_limit(
    F: TwoIndexFn, a: float, b: float, tol: float = 1e-4, max_levels: int = 16,
) -> LimitResult:
    """Partition sums along the nested dyadic chain with a Cauchy verdict.

    The chain is read level by level, and reading stops once the sums moved
    by less than ``tol`` over the last three levels: that is convergence.  A
    chain that ends first, after ``max_levels`` levels, is reported through
    the flag, never raised.
    """
    if not (a < b):
        raise ValueError("summability_limit needs a < b")
    if max_levels < 1:
        raise ValueError("summability_limit needs max_levels >= 1")
    sums: list[float] = []  # the last three partition sums, oldest first
    for part in _dyadic_chain(a, b, max_levels):
        sums = [*sums[-2:], partition_sum(F, part)]
        if len(sums) == 3 and abs(sums[2] - sums[1]) < tol and abs(sums[1] - sums[0]) < tol:
            return LimitResult(sums[-1], True)
    return LimitResult(sums[-1], False)


# ---------------------------------------------------------------------------
# sup scan of the incremental ratios
# ---------------------------------------------------------------------------


def lipschitz_scan(F: TwoIndexFn, k: int, interval, h_max: float = 0.25) -> float:
    """Estimate sup over x in ``interval``, steps <= h_max of |F^k|.

    The sup is estimated on 65 equally spaced points at the four step
    scales h_max / 2^m, m < 4, and the estimate is the one at the finest
    scale.  NaN from F gives a NaN estimate.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi) or h_max <= 0:
        raise ValueError("lipschitz_scan needs lo < hi, h_max > 0")
    base = np.linspace(lo, hi, 65)
    x_star = None
    for m in range(4):
        hm = h_max / 2**m
        hs = [hm, hm / 2, hm / 4]
        xs = base
        if x_star is not None:
            # zoom near the previous argmax: divergences concentrate at
            # kinks, whose witnesses sit within a few steps of them
            xs = np.concatenate([base, x_star + hm * np.linspace(-2.0, 2.0, 17)])
        best, best_x = 0.0, float(base[0])
        for combo in np.stack(np.meshgrid(*([hs] * k)), axis=-1).reshape(-1, k):
            vals = np.abs(np.asarray(
                _raw_ratio(F, k, xs, [float(c) for c in combo]), dtype=float
            ))
            if np.any(np.isnan(vals)):
                return float("nan")
            i = int(np.argmax(vals))
            if vals[i] > best:
                best, best_x = float(vals[i]), float(xs[i])
        x_star = best_x
    return best


# ---------------------------------------------------------------------------
# vanishing-step derivative limits
# ---------------------------------------------------------------------------


DEFAULT_SCHEDULE = tuple(0.1 * 0.5**i for i in range(14))


@dataclass(frozen=True)
class DerivativeResult:
    value: float
    exists: bool


def derivative_limit(F: TwoIndexFn, j: int, x: float) -> DerivativeResult:
    """Limit of F^j(x, h, ..., h) as h drops to 0, with equal steps anchored at x.

    The values along ``DEFAULT_SCHEDULE`` (h = 0.1 / 2^i, i < 14) are
    extrapolated to h = 0 with a Neville tableau (exact for ratios
    polynomial in h); ``exists`` is True when the tableau error estimate is
    within 1e-6 relative to max(1, |value|).  When the plain limit does not
    exist (oscillation, divergence) the result reports ``exists=False``
    rather than guessing a value.
    """
    hs = DEFAULT_SCHEDULE

    def raw(h: float) -> float:
        try:
            return float(_raw_ratio(F, j, np.asarray(x, dtype=float), [h] * j))
        except (OverflowError, FloatingPointError):
            return float("nan")

    # Neville tableau built column by column with Ridders-style early stop:
    # once the diagonal degrades against the best error seen, smaller steps
    # only feed cancellation noise and the loop ends.
    safe = 2.0
    v0 = raw(hs[0])
    if not math.isfinite(v0):
        return DerivativeResult(float("nan"), False)
    col = [v0]
    best, best_err = v0, float("inf")
    for i in range(1, len(hs)):
        v = raw(hs[i])
        if not math.isfinite(v):
            break
        new_col = [v]
        for order in range(1, i + 1):
            prev_lo, prev = new_col[order - 1], col[order - 1]
            h_hi, h_lo = hs[i - order], hs[i]
            val = prev_lo + (prev_lo - prev) * h_lo / (h_hi - h_lo)
            if not math.isfinite(val):
                break
            err = max(abs(val - prev_lo), abs(val - prev))
            if err < best_err:
                best, best_err = val, err
            new_col.append(val)
        if (
            len(new_col) == i + 1
            and best_err < float("inf")
            and abs(new_col[-1] - col[-1]) >= safe * best_err
        ):
            col = new_col
            break
        col = new_col
    exists = best_err <= 1e-6 * max(1.0, abs(best))
    return DerivativeResult(float(best), bool(exists))


# ---------------------------------------------------------------------------
# Taylor-style expansion check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    """Expansion of the partition limit I(F; a, b) around a.

    ``terms`` holds (j, (b - a)^j / j! * D_j) for orders j < k, where D_j is
    the vanishing-step limit of the j-th incremental ratio at a.
    ``remainder`` is computed independently by quadrature of the order-k
    ratio limit against the (b - t)^(k-1) remainder density, so
    ``identity_gap = |I - sum(terms) - remainder|`` genuinely measures how
    well the expansion closes.  ``remainder_bound`` is
    (b - a)^k / k! * sup|F^k| from :func:`lipschitz_scan`.
    """

    a: float
    b: float
    order: int
    terms: tuple
    remainder: float
    identity_gap: float
    remainder_bound: float
    bound_ok: bool
    applicable: bool
    success: bool
    total: float

    def to_dict(self):
        return {
            "a": self.a, "b": self.b, "order": self.order,
            "terms": [[j, v] for j, v in self.terms],
            "remainder": self.remainder, "identity_gap": self.identity_gap,
            "remainder_bound": self.remainder_bound, "bound_ok": self.bound_ok,
            "applicable": self.applicable, "success": self.success,
            "total": self.total,
        }


def taylor_check(F: TwoIndexFn, a: float, b: float, k: int, tol: float = 1e-8) -> ExpansionReport:
    """Check the order-k expansion of I(F; a, b) against its remainder.

    A missing derivative limit at ``a`` marks the report not applicable
    instead of raising.  I(F; a, b) is the summability limit at tolerance
    1e-8.  The remainder quadrature weights the order-k ratio limit with the
    density k (b - t)^(k-1) / (b - a)^k, realized through the substitution
    t = b - (b - a) u^(1/k) with 201 midpoint nodes in u; more than 5% of
    nodes without a limit mark the report not applicable.  The remainder
    bound scans steps up to min(0.25, (b - a) / 4).
    """
    quad_points = 201
    if not (a < b) or k < 1:
        raise ValueError("taylor_check needs a < b and k >= 1")

    terms = []
    applicable = True
    for j in range(1, k):
        d = derivative_limit(F, j, a)
        if not d.exists:
            applicable = False
            break
        terms.append((j, (b - a) ** j / math.factorial(j) * d.value))

    if not applicable:
        return ExpansionReport(
            a=a, b=b, order=k, terms=tuple(terms), remainder=float("nan"),
            identity_gap=float("nan"), remainder_bound=float("nan"),
            bound_ok=False, applicable=False, success=False, total=float("nan"),
        )

    total = summability_limit(F, a, b, tol=1e-8).estimate

    u = (np.arange(quad_points) + 0.5) / quad_points
    nodes = b - (b - a) * u ** (1.0 / k)
    node_vals, failed = [], 0
    for t in nodes:
        d = derivative_limit(F, k, float(t))
        if d.exists:
            node_vals.append(d.value)
        else:
            failed += 1
    if failed > 0.05 * quad_points or not node_vals:
        return ExpansionReport(
            a=a, b=b, order=k, terms=tuple(terms), remainder=float("nan"),
            identity_gap=float("nan"), remainder_bound=float("nan"),
            bound_ok=False, applicable=False, success=False, total=total,
        )
    remainder = (b - a) ** k / math.factorial(k) * float(np.mean(node_vals))

    gap = abs(total - sum(v for _, v in terms) - remainder)
    sup = lipschitz_scan(F, k, (a, b), h_max=min(0.25, (b - a) / 4))
    bound = (b - a) ** k / math.factorial(k) * sup
    bound_ok = abs(remainder) <= bound + 1e-9 + 1e-9 * abs(bound)
    return ExpansionReport(
        a=a, b=b, order=k, terms=tuple(terms), remainder=remainder,
        identity_gap=gap, remainder_bound=bound, bound_ok=bound_ok,
        applicable=True, success=gap <= tol, total=total,
    )
