"""Tests for the real-line two-index functional calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    DyadicRefinement,
    NumericRangeError,
    Partition,
    RandomBisection,
    ScalarFn,
    approx_derivative,
    custom_two_index,
    increment_fn,
    incremental_ratio,
    linear_remainder,
    lipschitz_scan,
    list_catalog,
    make_scalar_fn,
    partition_sum,
    squared_increment,
    summability_limit,
    taylor_check,
    variation_limit,
    weighted_increment,
)
from pathcalc.catalog import CATALOG_NAMES
from pathcalc.functional import check_declared_derivatives, check_lipschitz_bounds

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
        assert incremental_ratio(F, 1, 3.7, [0.2]) == pytest.approx(1.0)

    def test_square_second_ratio_constant(self):
        F = increment_fn(SQUARE)
        assert incremental_ratio(F, 2, 0.0, [0.5, 0.25]) == pytest.approx(2.0)

    def test_x_abs_x_half_second_ratio_at_origin(self):
        F = increment_fn(XABS)
        for h in ([0.5, 0.25], [0.03, 0.7], [1e-3, 1e-3]):
            assert incremental_ratio(F, 2, 0.0, h) == pytest.approx(1.0)

    def test_nonpositive_step_rejected(self):
        F = increment_fn(SQUARE)
        with pytest.raises(ValueError):
            incremental_ratio(F, 1, 0.0, [0.0])
        with pytest.raises(ValueError):
            incremental_ratio(F, 2, 0.0, [0.1, -0.1])

    def test_overflow_raises_numeric_range(self):
        huge = ScalarFn("huge", lambda x: (np.asarray(x, dtype=float) * 1e200) ** 2)
        with pytest.raises(NumericRangeError):
            incremental_ratio(increment_fn(huge), 1, 1.0, [0.5])

    @given(x=finite_floats, h1=small_steps, h2=small_steps)
    @settings(max_examples=60, deadline=None)
    def test_recursion_matches_four_point_formula(self, x, h1, h2):
        F = increment_fn(XABS)
        via_recursion = incremental_ratio(F, 2, x, [h1, h2])
        direct = (F(x + h2, x + h2 + h1) / h1 - F(x, x + h1) / h1) / h2
        assert via_recursion == direct  # identical expression tree, bitwise


class TestTwoIndexConstructions:
    @given(x=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_diagonal_vanishes_exactly(self, x):
        sign = make_scalar_fn("sign")
        constructions = [
            increment_fn(ABS),
            weighted_increment(sign, SQUARE),
            linear_remainder(XABS, ABS),
            squared_increment(),
        ]
        for F in constructions:
            assert F(x, x) == 0.0

    def test_increment_kind_is_plain_difference(self):
        F = increment_fn(CUBE)
        assert F(1.5, 2.5) == float(CUBE(2.5)) - float(CUBE(1.5))

    def test_custom_requires_vanishing_diagonal(self):
        with pytest.raises(ValueError):
            custom_two_index(lambda x, y: np.asarray(y) + 1.0, "bad")


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

    def test_refinement_is_point_inclusion(self):
        coarse = Partition(0.0, 1.0, (0.5,))
        fine = Partition(0.0, 1.0, (0.25, 0.5, 0.75))
        assert fine.refines(coarse)
        assert not coarse.refines(fine)


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

    def test_random_refinement_chain_agrees_with_dyadic(self):
        F = linear_remainder(SQUARE, ABS)
        dyadic = summability_limit(F, -1.0, 1.0, DyadicRefinement(), tol=1e-5)
        random_chain = summability_limit(F, -1.0, 1.0, RandomBisection(seed=9),
                                         tol=1e-5, max_levels=22)
        assert random_chain.converged
        assert random_chain.estimate == pytest.approx(dyadic.estimate, abs=1e-2)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            summability_limit(squared_increment(), 1.0, 0.0)


class TestVariationLimit:
    def test_abs_total_variation(self):
        res = variation_limit(increment_fn(ABS), -1.0, 1.0)
        assert res.finite
        assert res.estimate == pytest.approx(2.0, abs=1e-12)

    def test_monotone_function(self):
        res = variation_limit(increment_fn(CUBE), -1.0, 2.0)
        assert res.finite
        assert res.estimate == pytest.approx(float(CUBE(2.0)) - float(CUBE(-1.0)), abs=1e-10)

    def test_unbounded_oscillation_not_finite(self):
        def xsin(x):
            x = np.asarray(x, dtype=float)
            safe = np.where(x != 0, x, 1.0)
            return np.where(x != 0, x * np.sin(1.0 / safe), 0.0)

        res = variation_limit(increment_fn(ScalarFn("xsin", xsin)), 0.0, 1.0, max_levels=18)
        assert not res.finite
        assert res.trace[-1] > res.trace[-3]  # still growing at the last levels


class TestLipschitzScan:
    def test_square_second_ratio_bounded_at_two(self):
        res = lipschitz_scan(increment_fn(SQUARE), 2, (-1.0, 1.0))
        assert res.bounded
        assert res.sup_estimate == pytest.approx(2.0, abs=1e-9)

    def test_abs_first_ratio_bounded_at_one(self):
        res = lipschitz_scan(increment_fn(ABS), 1, (-1.0, 1.0))
        assert res.bounded
        assert res.sup_estimate == pytest.approx(1.0, abs=1e-9)

    def test_abs_second_ratio_diverges_across_kink(self):
        res = lipschitz_scan(increment_fn(ABS), 2, (-1.0, 1.0))
        assert not res.bounded
        assert res.sups[-1] > res.sups[0]

    def test_abs_second_ratio_bounded_away_from_kink(self):
        res = lipschitz_scan(increment_fn(ABS), 2, (0.5, 1.0))
        assert res.bounded
        assert res.sup_estimate == pytest.approx(0.0, abs=1e-12)

    def test_nan_reported_as_failed_scan(self):
        bad = custom_two_index(
            lambda x, y: np.where(np.asarray(y) > 0.5, np.nan, 0.0) * (np.asarray(y) - np.asarray(x)),
            "nan_after_half", validate=False,
        )
        res = lipschitz_scan(bad, 1, (0.0, 1.0))
        assert not res.bounded
        assert np.isnan(res.sup_estimate)


class TestApproxDerivative:
    def test_square_second_derivative(self):
        res = approx_derivative(SQUARE, 2, 1.0)
        assert res.exists
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_abs_right_derivative_at_origin(self):
        res = approx_derivative(ABS, 1, 0.0)
        assert res.exists
        assert res.value == 1.0

    def test_abs_second_ratio_anchored_at_origin(self):
        # with equal steps anchored at x = 0 the second ratio is identically 0
        res = approx_derivative(ABS, 2, 0.0)
        assert res.exists
        assert res.value == 0.0

    def test_cube_derivatives(self):
        assert approx_derivative(CUBE, 1, 1.0).value == pytest.approx(3.0, abs=1e-8)
        assert approx_derivative(CUBE, 2, 0.5).value == pytest.approx(3.0, abs=1e-8)
        assert approx_derivative(CUBE, 3, -0.3).value == pytest.approx(6.0, abs=1e-8)

    def test_oscillating_limit_does_not_exist(self):
        def xsin(x):
            x = np.asarray(x, dtype=float)
            safe = np.where(x != 0, x, 1.0)
            return np.where(x != 0, x * np.sin(1.0 / safe), 0.0)

        assert not approx_derivative(ScalarFn("xsin", xsin), 1, 0.0).exists


class TestCatalogDeclarations:
    @pytest.mark.parametrize("name", ["abs", "square", "cube", "x_abs_x_half",
                                      "sign_primitive", "identity", "relu", "cos"])
    def test_declared_derivatives_match_finite_differences(self, name):
        assert check_declared_derivatives(make_scalar_fn(name))

    @pytest.mark.parametrize("name", ["abs", "square", "cube", "x_abs_x_half",
                                      "identity", "relu", "cos"])
    def test_lipschitz_bounds_hold_on_samples(self, name):
        assert check_lipschitz_bounds(make_scalar_fn(name))

    def test_piecewise_linear_eval_and_convexity(self):
        f = make_scalar_fn("piecewise_linear", breakpoints=[0.3], slopes=[0.0, 1.0])
        xs = np.array([-1.0, 0.0, 0.3, 0.65, 2.0])
        assert np.allclose(f(xs), np.maximum(xs - 0.3, 0.0))
        assert f.convex
        assert not make_scalar_fn("piecewise_linear",
                                  breakpoints=[0.0], slopes=[1.0, -1.0]).convex

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
