"""Tests for the real-line two-index functional calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    Partition,
    ScalarFn,
    derivative_limit,
    increment_fn,
    linear_remainder,
    lipschitz_scan,
    list_catalog,
    make_scalar_fn,
    partition_sum,
    squared_increment,
    summability_limit,
    taylor_check,
)
from pathcalc import functional
from pathcalc.catalog import CATALOG_NAMES, _step_rc, sign_rc
from pathcalc.functional import _dyadic_chain, _raw_ratio
from pathcalc.paths import seeded_rng

ABS = make_scalar_fn("abs")
SQUARE = make_scalar_fn("square")
CUBE = make_scalar_fn("cube")
XABS = make_scalar_fn("x_abs_x_half")
IDENT = make_scalar_fn("identity")

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
small_steps = st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False)


class TestIncrementalRatio:
    def test_linear_first_ratio(self):
        F = increment_fn(IDENT)
        assert _raw_ratio(F, 1, 3.7, [0.2]) == pytest.approx(1.0)

    def test_square_second_ratio_constant(self):
        F = increment_fn(SQUARE)
        assert _raw_ratio(F, 2, 0.0, [0.5, 0.25]) == pytest.approx(2.0)

    def test_x_abs_x_half_second_ratio_at_origin(self):
        F = increment_fn(XABS)
        for h in ([0.5, 0.25], [0.03, 0.7], [1e-3, 1e-3]):
            assert _raw_ratio(F, 2, 0.0, h) == pytest.approx(1.0)

    def test_overflow_is_not_finite(self):
        huge = ScalarFn("huge", lambda x: (np.asarray(x, dtype=float) * 1e200) ** 2)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_raw_ratio(increment_fn(huge), 1, 1.0, [0.5]))

    @given(x=finite_floats, h1=small_steps, h2=small_steps)
    @settings(max_examples=60, deadline=None)
    def test_recursion_matches_four_point_formula(self, x, h1, h2):
        F = increment_fn(XABS)
        via_recursion = float(_raw_ratio(F, 2, x, [h1, h2]))
        direct = (F(x + h2, x + h2 + h1) / h1 - F(x, x + h1) / h1) / h2
        assert via_recursion == direct  # identical expression tree, bitwise


class TestTwoIndexConstructions:
    @given(x=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_diagonal_vanishes_exactly(self, x):
        constructions = [
            increment_fn(ABS),
            linear_remainder(XABS, ABS),
            squared_increment(),
        ]
        for F in constructions:
            assert F(x, x) == 0.0

    def test_increment_kind_is_plain_difference(self):
        F = increment_fn(CUBE)
        assert F(1.5, 2.5) == float(CUBE(2.5)) - float(CUBE(1.5))


class TestPartitionSum:
    def test_telescoping_any_partition(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        for f in (ABS, SQUARE, CUBE, XABS):
            F = increment_fn(f)
            for _ in range(20):
                a, b = sorted(rng.uniform(-2, 2, 2))
                if b - a < 1e-3:
                    continue
                pts = np.sort(rng.uniform(a, b, size=int(rng.integers(0, 20))))
                pts = pts[(pts > a) & (pts < b)]
                s = partition_sum(F, Partition(a, b, tuple(pts)))
                assert s == pytest.approx(float(f(b)) - float(f(a)), abs=1e-12)

    def test_quadratic_uniform_four_cells(self):
        part = Partition(0.0, 1.0, (0.25, 0.5, 0.75))
        assert partition_sum(squared_increment(), part) == pytest.approx(0.25)

    def test_linear_remainder_square_matches_quadratic(self):
        g2x = ScalarFn("2x", lambda x: 2.0 * np.asarray(x, dtype=float))
        F = linear_remainder(SQUARE, g2x)
        for n in (4, 8, 16):
            part = Partition(0.0, 1.0, tuple(np.arange(1, n) / n))
            assert partition_sum(F, part) == pytest.approx(1.0 / n, abs=1e-14)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Partition(1.0, 1.0, ())

    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf),
                                      (np.nan, 1.0), (0.0, np.nan)])
    def test_ends_that_are_not_finite_are_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite a < b"):
            Partition(a, b, ())

    @pytest.mark.parametrize("points", [(np.nan,), (np.nan, 0.5, 0.75), (0.25, np.nan, 0.75),
                                        (0.25, 0.5, np.nan)],
                             ids=["only", "first", "middle", "last"])
    def test_nan_points_are_rejected(self, points):
        with pytest.raises(ValueError, match="partition points"):
            Partition(0.0, 1.0, points)

    @pytest.mark.parametrize("points", [0.5, [[0.25, 0.5]]], ids=["scalar", "two_dimensional"])
    def test_points_that_are_not_one_dimensional_are_rejected(self, points):
        with pytest.raises(ValueError, match="one-dimensional"):
            Partition(0.0, 1.0, points)

    def test_points_are_a_read_only_copy(self):
        given = np.array([0.25, 0.5, 0.75])
        part = Partition(0.0, 1.0, given)
        given[1] = 0.3
        assert part.points.tolist() == [0.25, 0.5, 0.75]
        with pytest.raises(ValueError, match="read-only"):
            part.points[0] = 0.1


def _eager_dyadic(a, b, n_levels):
    """Dyadic levels built one by one from their closed form, as a list."""
    return [a + (b - a) * np.arange(1, 2**lv) / 2**lv for lv in range(n_levels)]


class TestRefinementChains:
    @given(n_levels=st.integers(1, 10), a=st.floats(-2.0, 2.0),
           length=st.sampled_from([1e-9, 3e-9, 1e-6, 1e-3, 0.5, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_chains_match_their_eager_references(self, n_levels, a, length):
        b = a + length
        chain, reference = list(_dyadic_chain(a, b, n_levels)), _eager_dyadic(a, b, n_levels)
        assert len(chain) == len(reference) == n_levels
        for part, pts in zip(chain, reference):
            assert np.array_equal(part.points, pts)

    def test_a_chain_is_not_read_past_convergence(self, monkeypatch):
        def raises_after_level_five(a, b, n_levels):
            for level, part in enumerate(_dyadic_chain(a, b, n_levels)):
                if level > 5:
                    raise AssertionError("read past convergence")
                yield part

        monkeypatch.setattr(functional, "_dyadic_chain", raises_after_level_five)
        # the increment of |x| telescopes, so its sums converge at level 2
        res = summability_limit(increment_fn(ABS), -1.0, 1.0)
        assert res.converged
        assert res.estimate == 0.0


class TestSummabilityLimit:
    def test_abs_increment_on_symmetric_interval(self):
        res = summability_limit(increment_fn(ABS), -1.0, 1.0)
        assert res.converged
        assert res.estimate == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_vanishes(self):
        res = summability_limit(squared_increment(), 0.0, 1.0)
        assert res.converged
        assert res.estimate == pytest.approx(0.0, abs=1e-4)

    def test_remainder_functional_against_refinement_oracle(self):
        F = linear_remainder(XABS, ABS)
        a, b = -0.5, 1.0
        edges = a + (b - a) * np.arange(2**20 + 1) / 2**20
        oracle = float(np.sum(F(edges[:-1], edges[1:])))
        res = summability_limit(F, a, b, tol=1e-5, max_levels=22)
        assert res.converged
        assert res.estimate == pytest.approx(oracle, abs=2e-4)

    def test_nonzero_limit_with_mismatched_slope(self):
        # f(b) - f(a) minus the Riemann integral of g: 0 - 1 here
        F = linear_remainder(SQUARE, ABS)
        res = summability_limit(F, -1.0, 1.0, tol=1e-5)
        assert res.converged
        assert res.estimate == pytest.approx(-1.0, abs=1e-3)

    def test_additivity_of_converged_limits(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        tol = 1e-4
        for f in (ABS, XABS, SQUARE):
            F = increment_fn(f)
            t = float(rng.uniform(-0.5, 0.5))
            whole = summability_limit(F, -1.0, 1.0, tol=tol)
            left = summability_limit(F, -1.0, t, tol=tol)
            right = summability_limit(F, t, 1.0, tol=tol)
            assert whole.converged and left.converged and right.converged
            assert abs(whole.estimate - left.estimate - right.estimate) < 2 * tol

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            summability_limit(squared_increment(), 1.0, 0.0)

    def test_no_levels_is_rejected(self):
        with pytest.raises(ValueError, match="max_levels >= 1"):
            summability_limit(squared_increment(), 0.0, 1.0, max_levels=0)


class TestLipschitzScan:
    def test_square_second_ratio_bounded_at_two(self):
        assert lipschitz_scan(increment_fn(SQUARE), 2, (-1.0, 1.0)) == pytest.approx(2.0,
                                                                                     abs=1e-9)

    def test_abs_first_ratio_bounded_at_one(self):
        assert lipschitz_scan(increment_fn(ABS), 1, (-1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_abs_second_ratio_diverges_across_kink(self):
        # |x| is 1-Lipschitz, so its second ratio is at most 2 / h2 with h2 >= 1/128 at the
        # finest scale: the scan reaches that 256 across the kink, against 2 for x^2
        assert lipschitz_scan(increment_fn(ABS), 2, (-1.0, 1.0)) == 256.0
        assert lipschitz_scan(increment_fn(SQUARE), 2, (-1.0, 1.0)) == 2.0

    def test_abs_second_ratio_bounded_away_from_kink(self):
        assert lipschitz_scan(increment_fn(ABS), 2, (0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_nan_gives_a_nan_estimate(self):
        def nan_after_half(x, y):
            return np.where(np.asarray(y) > 0.5, np.nan, 0.0) * (np.asarray(y) - np.asarray(x))

        assert np.isnan(lipschitz_scan(nan_after_half, 1, (0.0, 1.0)))


class TestDerivativeLimit:
    def test_square_second_derivative(self):
        res = derivative_limit(increment_fn(SQUARE), 2, 1.0)
        assert res.exists
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_abs_right_derivative_at_origin(self):
        res = derivative_limit(increment_fn(ABS), 1, 0.0)
        assert res.exists
        assert res.value == 1.0

    def test_abs_second_ratio_anchored_at_origin(self):
        # with equal steps anchored at x = 0 the second ratio is identically 0
        res = derivative_limit(increment_fn(ABS), 2, 0.0)
        assert res.exists
        assert res.value == 0.0

    def test_cube_derivatives(self):
        assert derivative_limit(increment_fn(CUBE), 1, 1.0).value == pytest.approx(3.0, abs=1e-8)
        assert derivative_limit(increment_fn(CUBE), 2, 0.5).value == pytest.approx(3.0, abs=1e-8)
        assert derivative_limit(increment_fn(CUBE), 3, -0.3).value == pytest.approx(6.0, abs=1e-8)

    def test_oscillating_limit_does_not_exist(self):
        def xsin(x):
            x = np.asarray(x, dtype=float)
            safe = np.where(x != 0, x, 1.0)
            return np.where(x != 0, x * np.sin(1.0 / safe), 0.0)

        assert not derivative_limit(increment_fn(ScalarFn("xsin", xsin)), 1, 0.0).exists


def check_declared_derivatives(f: ScalarFn) -> bool:
    """Check declared derivatives against centered differences of step h = 1e-5.

    The 200 points are uniform on [-2, 2] (seed 1), and a derivative passes
    within 1e-3 relative to 1 + |declared value|.  Points within ``10 * h``
    of a kink of ``KINKS`` are skipped: there the declared value is one-sided
    while the centered difference is not.
    """
    h, tol = 1e-5, 1e-3
    x = seeded_rng(1).uniform(-2.0, 2.0, size=200)
    for kink in KINKS.get(f.label, ()):
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


# the points where a catalog function's declared derivatives are one-sided
KINKS = {"abs": (0.0,), "x_abs_x_half": (0.0,), "sign_primitive": (0.0,), "relu": (0.0,)}

# (interval, L): |f(y) - f(x)| <= L |y - x| for x, y in the interval
LIPSCHITZ_BOUNDS = {
    "abs": ((-1e9, 1e9), 1.0),
    "square": ((-10.0, 10.0), 20.0),
    "cube": ((-10.0, 10.0), 300.0),
    "x_abs_x_half": ((-10.0, 10.0), 10.0),
    "identity": ((-1e9, 1e9), 1.0),
    "relu": ((-1e9, 1e9), 1.0),
    "cos": ((-1e9, 1e9), 1.0),
}


class TestCatalogDeclarations:
    @pytest.mark.parametrize("name", ["abs", "square", "cube", "x_abs_x_half",
                                      "sign_primitive", "identity", "relu", "cos"])
    def test_declared_derivatives_match_finite_differences(self, name):
        assert check_declared_derivatives(make_scalar_fn(name))

    @pytest.mark.parametrize("name", list(LIPSCHITZ_BOUNDS))
    def test_lipschitz_bounds_hold_on_samples(self, name):
        f = make_scalar_fn(name)
        (lo, hi), lip = LIPSCHITZ_BOUNDS[name]
        lo, hi = max(lo, -1e6), min(hi, 1e6)
        rng = seeded_rng(0)
        x = rng.uniform(lo, hi, size=400)
        y = rng.uniform(lo, hi, size=400)
        gap = np.abs(np.asarray(f(y)) - np.asarray(f(x)))
        assert np.all(gap <= lip * np.abs(y - x) + 1e-9)
        # the first ratio, scanned with steps up to 0.25, stays under the same constant
        assert lipschitz_scan(increment_fn(f), 1, (max(lo, -9.0), min(hi, 9.0))) <= lip

    def test_piecewise_linear_eval_and_convexity(self):
        f = make_scalar_fn("piecewise_linear", breakpoints=[0.3], slopes=[0.0, 1.0])
        xs = np.array([-1.0, 0.0, 0.3, 0.65, 2.0])
        assert np.allclose(f(xs), np.maximum(xs - 0.3, 0.0))
        assert f.convex
        assert not make_scalar_fn("piecewise_linear",
                                  breakpoints=[0.0], slopes=[1.0, -1.0]).convex

    @pytest.mark.parametrize("fn, lo", [(sign_rc, -1.0), (_step_rc, 0.0)],
                             ids=["sign_rc", "step_rc"])
    def test_sign_and_step_bits_at_the_edge_values(self, fn, lo):
        # right-continuous at 0, -0.0 included; NaN reads as negative; a +0.0 step, never -0.0
        x = np.array([-np.inf, -1e300, -5e-324, -0.0, 0.0, 5e-324, 1e300, np.inf, np.nan,
                      -np.nan])
        want = np.array([lo, lo, lo, 1.0, 1.0, 1.0, 1.0, 1.0, lo, lo])
        got = fn(x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for v, w in zip(x, want):
            assert np.float64(fn(v)).view(np.int64) == w.view(np.int64)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scalar_fn("does_not_exist")

    @pytest.mark.parametrize("name, params, named", [
        ("abs", {"scale": 5}, "scale"),
        ("square", {"breakpoints": [0.0]}, "breakpoints"),
        ("piecewise_linear", {"breakpoints": [0.0]}, "slopes"),
        ("piecewise_linear", {"slopes": [1.0]}, "breakpoints"),
        ("piecewise_linear", {"breakpoints": [], "slopes": [1.0], "scale": 2}, "scale"),
    ])
    def test_bad_parameters_rejected_by_name(self, name, params, named):
        with pytest.raises(ValueError, match=named):
            make_scalar_fn(name, **params)

    def test_listing_covers_exactly_the_buildable_names(self):
        assert sorted(list_catalog()) == list(CATALOG_NAMES)
        for name in CATALOG_NAMES:
            if name != "piecewise_linear":
                assert make_scalar_fn(name).label == name


class TestTaylorCheck:
    def test_cubic_order_three(self):
        rep = taylor_check(increment_fn(CUBE), 0.0, 1.0, 3)
        assert rep.applicable and rep.success
        assert dict(rep.terms) == pytest.approx({1: 0.0, 2: 0.0}, abs=1e-10)
        assert rep.remainder == pytest.approx(1.0, abs=1e-10)
        assert rep.remainder_bound == pytest.approx(1.0, abs=1e-9)
        assert rep.bound_ok

    def test_square_on_wider_interval(self):
        rep = taylor_check(increment_fn(SQUARE), 0.0, 2.0, 2)
        assert rep.success
        assert dict(rep.terms)[1] == pytest.approx(0.0, abs=1e-10)
        assert rep.remainder == pytest.approx(4.0, abs=1e-9)

    def test_kinked_primitive_order_two(self):
        rep = taylor_check(increment_fn(XABS), 0.0, 1.0, 2)
        assert rep.success
        assert dict(rep.terms)[1] == pytest.approx(0.0, abs=1e-10)
        assert rep.remainder == pytest.approx(0.5, abs=1e-9)
        assert rep.remainder_bound == pytest.approx(0.5, abs=1e-9)
        assert rep.bound_ok

    @pytest.mark.parametrize("coeffs,deg", [
        ((0.0, 1.0), 1), ((0.0, 0.0, 1.0), 2), ((0.0, 0.5, 0.0, 1.0), 3),
        ((0.2, -0.5, 1.5, 0.0, 0.3), 4),
    ])
    def test_polynomial_exactness(self, coeffs, deg):
        poly = ScalarFn("poly", lambda x, c=coeffs: np.polyval(list(reversed(c)), np.asarray(x, dtype=float)))
        rep = taylor_check(increment_fn(poly), -0.7, 0.9, deg)
        assert rep.applicable
        assert rep.identity_gap < 1e-10

    def test_missing_limit_marks_not_applicable(self):
        def xsin(x):
            x = np.asarray(x, dtype=float)
            safe = np.where(x != 0, x, 1.0)
            return np.where(x != 0, x * np.sin(1.0 / safe), 0.0)

        rep = taylor_check(increment_fn(ScalarFn("xsin", xsin)), 0.0, 1.0, 2)
        assert not rep.applicable and not rep.success

    def test_report_serializes(self):
        rep = taylor_check(increment_fn(SQUARE), 0.0, 1.0, 2)
        d = rep.to_dict()
        assert d["order"] == 2 and d["applicable"] is True
