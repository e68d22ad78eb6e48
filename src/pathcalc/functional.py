"""Real-line calculus of two-index functionals.

A two-index functional F(x, y) with F(x, x) = 0 plays the role of a
generalized increment.  This module provides the constructions built from
scalar functions (increment, weighted increment, first-order linear
remainder, squared increment), iterated incremental ratios, partition sums
and their refinement limits, variation scans, boundedness scans for the
ratios, vanishing-step derivative limits, and a Taylor-style expansion
check with an independently computed remainder.

Everything here is pure: types are frozen dataclasses and operations are
functions of their inputs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericRangeError
from .paths import seeded_rng

__all__ = [
    "ScalarFn",
    "TwoIndexFn",
    "Partition",
    "DyadicRefinement",
    "RandomBisection",
    "LimitResult",
    "VariationResult",
    "ScanResult",
    "DerivativeResult",
    "ExpansionReport",
    "increment_fn",
    "weighted_increment",
    "linear_remainder",
    "squared_increment",
    "custom_two_index",
    "incremental_ratio",
    "partition_sum",
    "summability_limit",
    "variation_limit",
    "lipschitz_scan",
    "derivative_limit",
    "approx_derivative",
    "taylor_check",
    "check_declared_derivatives",
    "check_lipschitz_bounds",
]


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFn:
    """A real function with optional declared derivatives and metadata.

    ``derivatives`` maps order j to a callable for the a.e. j-th derivative;
    at kinks the right-continuous version is declared (that convention is
    what the decomposition code relies on).  ``lipschitz_bounds`` lists
    ``((lo, hi), L)`` pairs valid on the given interval.  ``kinks`` marks
    points where the declared derivatives are one-sided, so spot-check
    grids can avoid straddling them.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    derivatives: Mapping[int, Callable] = field(default_factory=dict)
    lipschitz_bounds: tuple = ()
    convex: bool = False
    kinks: tuple = ()

    def __call__(self, x):
        return self.fn(x)

    def derivative(self, order: int):
        return self.derivatives.get(order)


def check_lipschitz_bounds(f: ScalarFn) -> bool:
    """Spot-check each declared (interval, L) pair on 400 random point pairs (seed 0)."""
    rng = seeded_rng(0)
    for (lo, hi), lip in f.lipschitz_bounds:
        lo_, hi_ = max(lo, -1e6), min(hi, 1e6)
        x = rng.uniform(lo_, hi_, size=400)
        y = rng.uniform(lo_, hi_, size=400)
        gap = np.abs(np.asarray(f(y)) - np.asarray(f(x)))
        if np.any(gap > lip * np.abs(y - x) + 1e-9):
            return False
    return True


def check_declared_derivatives(f: ScalarFn) -> bool:
    """Check declared derivatives against centered differences of step h = 1e-5.

    The 200 points are uniform on [-2, 2] (seed 1), and a derivative passes
    within 1e-3 relative to 1 + |declared value|.  Points within ``10 * h``
    of a declared kink are skipped: there the declared value is one-sided
    while the centered difference is not.
    """
    h, tol = 1e-5, 1e-3
    x = seeded_rng(1).uniform(-2.0, 2.0, size=200)
    for kink in f.kinks:
        x = x[np.abs(x - kink) > 10 * h]
    for order, dfn in f.derivatives.items():
        if order == 1:
            approx = (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2 * h)
        elif order == 2:
            approx = (np.asarray(f(x + h)) - 2 * np.asarray(f(x)) + np.asarray(f(x - h))) / h**2
        else:
            continue
        target = np.asarray(dfn(x), dtype=float)
        scale = 1.0 + np.abs(target)
        if np.any(np.abs(approx - target) > tol * scale):
            return False
    return True


# ---------------------------------------------------------------------------
# two-index functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoIndexFn:
    """A functional F(x, y) vanishing on the diagonal."""

    label: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, y):
        return self.fn(x, y)


def increment_fn(f: ScalarFn) -> TwoIndexFn:
    """F(x, y) = f(y) - f(x)."""
    return TwoIndexFn(
        label=f"inc[{f.label}]", fn=lambda x, y: np.asarray(f(y)) - np.asarray(f(x)),
    )


def weighted_increment(g: ScalarFn, f: ScalarFn) -> TwoIndexFn:
    """F(x, y) = g(x) * (f(y) - f(x))."""
    return TwoIndexFn(
        label=f"winc[{g.label},{f.label}]",
        fn=lambda x, y: np.asarray(g(x)) * (np.asarray(f(y)) - np.asarray(f(x))),
    )


def linear_remainder(f: ScalarFn, g: ScalarFn) -> TwoIndexFn:
    """F(x, y) = f(y) - f(x) - g(x)(y - x).

    Nonnegative exactly when f is convex and g lies between the one-sided
    derivatives of f.
    """
    return TwoIndexFn(
        label=f"rem[{f.label},{g.label}]",
        fn=lambda x, y: np.asarray(f(y)) - np.asarray(f(x)) - np.asarray(g(x)) * (np.asarray(y) - np.asarray(x)),
    )


def squared_increment() -> TwoIndexFn:
    """F(x, y) = (y - x)^2, whose pathwise sums are realized quadratic variation."""
    return TwoIndexFn(label="sq", fn=lambda x, y: (np.asarray(y) - np.asarray(x)) ** 2)


def custom_two_index(fn: Callable, label: str, validate: bool = True) -> TwoIndexFn:
    """Wrap an arbitrary F(x, y); spot-checks the diagonal when ``validate``."""
    if validate:
        probe = np.array([-2.0, -0.3, 0.0, 0.7, 3.1])
        vals = np.asarray(fn(probe, probe), dtype=float)
        if np.any(vals != 0.0):
            raise ValueError(f"{label}: F(x, x) must be exactly 0 on the diagonal")
    return TwoIndexFn(label=label, fn=fn)


# ---------------------------------------------------------------------------
# incremental ratios
# ---------------------------------------------------------------------------


def _raw_ratio(F: TwoIndexFn, k: int, xs, h):
    """The k-th incremental ratio recursion, without the finite-value guard.

    Scans and derivative limits call it directly, since they welcome inf.
    """

    def ratio(j: int, pts):
        if j == 1:
            return np.asarray(F(pts, pts + h[0]), dtype=float) / h[0]
        return (ratio(j - 1, pts + h[j - 1]) - ratio(j - 1, pts)) / h[j - 1]

    return ratio(k, np.asarray(xs, dtype=float))


def incremental_ratio(F: TwoIndexFn, k: int, x, h: Sequence[float]):
    """k-th iterated incremental ratio of F at x with steps h = (h_1 ... h_k).

    The first ratio is F(x, x + h_1) / h_1; each further order differences
    the previous one over a step h_j and divides by h_j.  Accepts scalar or
    array x (vectorized).  Raises ``ValueError`` for nonpositive steps and
    ``NumericRangeError`` if the result is not finite.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    h = [float(v) for v in h]
    if len(h) != k:
        raise ValueError(f"expected {k} step(s), got {len(h)}")
    if any(v <= 0 for v in h):
        raise ValueError("all steps h_i must be positive")
    xs = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _raw_ratio(F, k, xs, h)
    if not np.all(np.isfinite(out)):
        raise NumericRangeError(
            f"incremental ratio of {F.label} overflowed at order {k} with steps {h}"
        )
    return out if xs.ndim else float(out)


# ---------------------------------------------------------------------------
# partitions and refinement schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A finite collection of points inside an interval (a, b).

    Points are sorted (ties allowed; tied cells contribute F(x, x) = 0) and
    must lie strictly inside the interval.  Endpoint cells are added by
    :func:`partition_sum`, so the increment functional telescopes exactly to
    f(b) - f(a) at every refinement level.
    """

    a: float
    b: float
    points: tuple

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError("partition needs a < b")
        pts = tuple(float(p) for p in self.points)
        if any(pts[i] > pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("partition points must be sorted")
        if pts and (pts[0] <= self.a or pts[-1] >= self.b):
            raise ValueError("partition points must lie strictly inside (a, b)")
        object.__setattr__(self, "points", pts)

    def refines(self, other: "Partition") -> bool:
        """True when this partition contains every point of ``other``."""
        return (self.a, self.b) == (other.a, other.b) and set(other.points) <= set(self.points)

    def cells(self) -> np.ndarray:
        return np.array([self.a, *self.points, self.b])


class DyadicRefinement:
    """Nested dyadic partitions: level L has the 2^L - 1 interior L-adic points."""

    label = "dyadic"

    def partition(self, a: float, b: float, level: int) -> Partition:
        if level < 0:
            raise ValueError("level must be >= 0")
        n = 2**level
        pts = a + (b - a) * np.arange(1, n) / n
        return Partition(a, b, tuple(pts))

    def chain(self, a: float, b: float, n_levels: int):
        return [self.partition(a, b, lv) for lv in range(n_levels)]


class RandomBisection:
    """Nested random refinements: each level splits every cell at a uniform point."""

    label = "random_bisection"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def chain(self, a: float, b: float, n_levels: int):
        rng = seeded_rng(self.seed)
        pts: list[float] = []
        out = [Partition(a, b, ())]
        for _ in range(1, n_levels):
            edges = [a, *pts, b]
            new = [
                lo + (hi - lo) * rng.uniform(0.25, 0.75)
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
            pts = sorted(pts + new)
            out.append(Partition(a, b, tuple(pts)))
        return out


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
    trace: tuple


@dataclass(frozen=True)
class VariationResult:
    estimate: float
    finite: bool
    trace: tuple


def _refine(F: TwoIndexFn, a, b, scheme, tol, max_levels, threshold=math.inf):
    """Partition sums along a nested refinement chain, stopped by a Cauchy test.

    Returns (trace, converged): converged when the sums moved by less than
    ``tol`` over the last three levels, not converged when a sum exceeds
    ``threshold`` or the chain ends first.
    """
    trace: list[float] = []
    for part in (scheme or DyadicRefinement()).chain(a, b, max_levels):
        trace.append(partition_sum(F, part))
        if trace[-1] > threshold:
            return trace, False
        if len(trace) >= 3:
            d1 = abs(trace[-1] - trace[-2])
            d2 = abs(trace[-2] - trace[-3])
            if d1 < tol and d2 < tol:
                return trace, True
    return trace, False


def summability_limit(
    F: TwoIndexFn, a: float, b: float, scheme=None,
    tol: float = 1e-4, max_levels: int = 16,
) -> LimitResult:
    """Partition sums along a nested refinement chain with a Cauchy verdict.

    Converged means the estimates moved by less than ``tol`` over the last
    three levels.  Non-convergence is reported through the flag, never
    raised.
    """
    if not (a < b):
        raise ValueError("summability_limit needs a < b")
    trace, converged = _refine(F, a, b, scheme, tol, max_levels)
    return LimitResult(trace[-1], converged, tuple(trace))


def variation_limit(
    F: TwoIndexFn, a: float, b: float, scheme=None,
    tol: float = 1e-4, max_levels: int = 16,
) -> VariationResult:
    """Same refinement chain with |F| summands.

    ``finite`` is False when the trace exceeds the divergence threshold
    ``1e6 * (|F(a, b)| + 1)`` or keeps growing (fails the Cauchy window)
    through ``max_levels``.
    """
    if not (a < b):
        raise ValueError("variation_limit needs a < b")
    absF = TwoIndexFn(label=f"abs[{F.label}]", fn=lambda x, y: np.abs(F(x, y)))
    threshold = 1e6 * abs(float(F(a, b))) + 1e6
    trace, finite = _refine(absF, a, b, scheme, tol, max_levels, threshold)
    return VariationResult(trace[-1], finite, tuple(trace))


# ---------------------------------------------------------------------------
# ratio boundedness scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    sup_estimate: float
    bounded: bool
    sups: tuple


def lipschitz_scan(F: TwoIndexFn, k: int, interval, h_max: float = 0.25) -> ScanResult:
    """Estimate sup over x in ``interval``, steps <= h_max of |F^k|.

    The sup is estimated on 65 equally spaced points at the four step
    scales h_max / 2^m, m < 4; ``bounded`` is True when the final estimate
    has not grown beyond twice the first one (the sup is stable as the
    steps vanish).  NaN from F turns into a failed scan (NaN estimate,
    bounded False).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi) or h_max <= 0:
        raise ValueError("lipschitz_scan needs lo < hi, h_max > 0")
    base = np.linspace(lo, hi, 65)
    sups = []
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
                return ScanResult(float("nan"), False, tuple(sups))
            i = int(np.argmax(vals))
            if vals[i] > best:
                best, best_x = float(vals[i]), float(xs[i])
        sups.append(best)
        x_star = best_x
    bounded = sups[-1] <= 2.0 * sups[0] + 1e-9
    return ScanResult(sups[-1], bounded, tuple(sups))


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


def approx_derivative(f: ScalarFn, j: int, x: float) -> DerivativeResult:
    """Vanishing-step j-th derivative of f (right version at kinks)."""
    return derivative_limit(increment_fn(f), j, x)


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
    (b - a)^k / k! * sup|F^k| from the boundedness scan.
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
    scan = lipschitz_scan(F, k, (a, b), h_max=min(0.25, (b - a) / 4))
    bound = (b - a) ** k / math.factorial(k) * scan.sup_estimate
    bound_ok = abs(remainder) <= bound + 1e-9 + 1e-9 * abs(bound)
    return ExpansionReport(
        a=a, b=b, order=k, terms=tuple(terms), remainder=remainder,
        identity_gap=gap, remainder_bound=bound, bound_ok=bound_ok,
        applicable=True, success=gap <= tol, total=total,
    )
