"""Tests for stopping-time grids and pathwise sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    OutsideDomainError,
    PathFunctional,
    ResolutionExhaustedError,
    SamplePath,
    ScalarFn,
    TwoPointLaw,
    UniformLaw,
    boundedness_scan,
    custom_two_index,
    dyadic_grid,
    hitting_grid,
    increment_fn,
    ito_decompose,
    limit_in_probability,
    linear_remainder,
    make_scalar_fn,
    pathwise_series,
    pathwise_sum,
    realized_qv,
    simulate,
    squared_increment,
    squared_increment_ratio,
    stopped_functional,
)

ABS = make_scalar_fn("abs")
SQUARE = make_scalar_fn("square")
XABS = make_scalar_fn("x_abs_x_half")
SIGN = make_scalar_fn("sign")


def bm(seed=11, n=4096):
    return simulate(BrownianMotion(), n, 1.0, seed=seed)


JD = JumpDiffusion(sigma=1.0, drift=0.2, rate=6.0, law=UniformLaw(-1.0, 1.0))
CPJ = CompoundPoissonJumps(rate=6.0, law=TwoPointLaw(0.5, 0.3, -0.4))
FV = FiniteVariationPath((0.0, 0.3, 0.7, 1.0), (0.0, 1.5, -0.5, 0.25))
seeds = st.integers(0, 2**32 - 1)


def reference_hitting_indices(p, eps):
    """First-passage rule written as a plain walk over every point in numpy scalars."""
    out, anchor = [0], p.values[0]
    for i in range(1, p.n_points):
        if abs(p.values[i] - anchor) >= eps:
            out.append(i)
            anchor = anchor + eps * np.trunc((p.values[i] - anchor) / eps)
    if out[-1] != p.n_points - 1:
        out.append(p.n_points - 1)
    return np.asarray(out)


def reference_dyadic_indices(p, level):
    """Nearest points to j T / 2^level (ties right), merged with jumps and endpoints by union."""
    targets = p.horizon * np.arange(2**level + 1) / 2**level
    pos = np.clip(np.searchsorted(p.times, targets), 0, p.n_points - 1)
    left = np.clip(pos - 1, 0, p.n_points - 1)
    pick_left = np.abs(p.times[left] - targets) < np.abs(p.times[pos] - targets)
    idx = np.union1d(np.where(pick_left, left, pos), p.jump_indices)
    return np.union1d(idx, [0, p.n_points - 1])


class TestGrids:
    def test_dyadic_zero_is_endpoints(self):
        g = dyadic_grid(bm(seed=1, n=8), 0)
        assert list(g.times) == [0.0, 1.0]

    def test_dyadic_two_on_uniform_grid(self):
        g = dyadic_grid(bm(seed=1, n=8), 2)
        assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_dyadic_includes_jump_times(self):
        p = simulate(CompoundPoissonJumps(rate=4.0, law=TwoPointLaw(0.5, 1.0, -1.0)),
                     64, 1.0, seed=5)
        assert len(p.jump_indices) > 0
        g = dyadic_grid(p, 0)
        assert set(p.jump_indices).issubset(set(g.indices))

    def test_hitting_on_deterministic_ramp(self):
        det = simulate(BrownianMotion(sigma=0.0, drift=1.0), 64, 1.0, seed=0)
        g = hitting_grid(det, 0.5)
        assert np.allclose(g.times, [0.0, 0.5, 1.0])

    def test_hitting_below_resolution_raises(self):
        p = bm(seed=2, n=256)
        with pytest.raises(ResolutionExhaustedError):
            hitting_grid(p, 1e-6)
        # a pure-jump path has heuristic 0, but a jump over 1e-310 overflows
        cpj = simulate(CPJ, 64, 1.0, seed=5)
        with pytest.raises(ResolutionExhaustedError):
            hitting_grid(cpj, 1e-310)

    @given(model=st.sampled_from([BrownianMotion(), JD, CPJ]), seed=seeds,
           n_steps=st.integers(1, 2**12), scale=st.floats(1.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_hitting_matches_scalar_reference_walk(self, model, seed, n_steps, scale):
        p = simulate(model, n_steps, 1.0, seed=seed)
        # at or above the resolution heuristic; pure-jump paths have heuristic 0
        eps = scale * max(2.0 * p.median_continuous_move(), 0.05)
        g = hitting_grid(p, eps)
        assert np.array_equal(g.indices, reference_hitting_indices(p, eps))
        assert g.mesh == float(np.max(np.diff(p.times[g.indices])))

    @given(model=st.sampled_from([BrownianMotion(), JD, CPJ, FV]), seed=seeds,
           n_steps=st.integers(1, 2**12), level=st.integers(0, 14))
    @settings(max_examples=60, deadline=None)
    def test_dyadic_matches_union_reference(self, model, seed, n_steps, level):
        p = simulate(model, n_steps, 1.0, seed=seed)
        g = dyadic_grid(p, level)
        assert np.array_equal(g.indices, reference_dyadic_indices(p, level))
        assert g.mesh == float(np.max(np.diff(p.times[g.indices])))

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -0.25])
    def test_hitting_rejects_eps_not_above_zero(self, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            hitting_grid(bm(seed=4, n=64), eps)


class TestGridProperties:
    @given(model=st.sampled_from([CPJ, JD]), seed=seeds,
           n_steps=st.integers(1, 600), level=st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_dyadic_grid_contains_every_jump(self, model, seed, n_steps, level):
        p = simulate(model, n_steps, 1.0, seed=seed)
        g = dyadic_grid(p, level)
        assert set(p.jump_indices.tolist()) <= set(g.indices.tolist())

    @given(model=st.sampled_from([BrownianMotion(), JD]), seed=seeds,
           cut_at=st.floats(0.0, 1.0), scale=st.floats(1.0, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_hitting_grid_is_a_stopping_time_rule(self, model, seed, cut_at, scale):
        p = simulate(model, 512, 1.0, seed=seed)
        k = max(2, int(cut_at * (p.n_points - 1)))
        kept = p.jump_indices <= k
        cut = SamplePath(
            times=p.times[:k + 1], values=p.values[:k + 1], pre_values=p.pre_values[:k + 1],
            jump_indices=p.jump_indices[kept], jump_sizes=p.jump_sizes[kept],
            horizon=float(p.times[k]),
        )
        # above the resolution heuristic of both paths, so neither call raises
        eps = scale * 2.0 * max(p.median_continuous_move(), cut.median_continuous_move())
        full = hitting_grid(p, eps).indices
        stopped = hitting_grid(cut, eps).indices
        assert np.array_equal(full[full < k], stopped[stopped < k])


class TestPathwiseSum:
    def test_increment_fn_telescopes_on_any_grid(self):
        p = bm(seed=11)
        pf = PathFunctional(path=p, base=increment_fn(ABS))
        for level in (0, 3, 6, 9):
            s = pathwise_sum(pf, dyadic_grid(p, level))
            assert s == pytest.approx(abs(p.values[-1]) - abs(p.values[0]), abs=1e-12)

    @given(model=st.sampled_from([BrownianMotion(), JD, CPJ, FV]), seed=seeds,
           n_steps=st.integers(1, 2**10), scheme=st.sampled_from(["dyadic", "hitting"]),
           level=st.integers(0, 10), scale=st.floats(1.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_quadratic_matches_realized_qv_bitwise(self, model, seed, n_steps, scheme,
                                                   level, scale):
        """realized_qv and ito_decompose read the grid's own path, on every model and scheme."""
        p = simulate(model, n_steps, 1.0, seed=seed)
        if scheme == "dyadic":
            g = dyadic_grid(p, level)
        else:
            # at or above the resolution heuristic; pure-jump paths have heuristic 0
            g = hitting_grid(p, scale * max(2.0 * p.median_continuous_move(), 0.05))
        assert realized_qv(g) == pathwise_sum(PathFunctional(g.path, squared_increment()), g)
        assert np.max(np.abs(ito_decompose(SQUARE, g).residual)) <= 1e-8

    def test_remainder_sum_equals_qv_for_square(self):
        g2x = ScalarFn("2x", lambda x: 2.0 * np.asarray(x, dtype=float))
        p = bm(seed=13)
        pf = PathFunctional(path=p, base=linear_remainder(SQUARE, g2x))
        g = dyadic_grid(p, 8)
        assert pathwise_sum(pf, g) == pytest.approx(realized_qv(g), abs=1e-12)

    def test_scaling_and_linearity(self):
        p = bm(seed=14)
        g = dyadic_grid(p, 6)
        F = increment_fn(XABS)
        G = squared_increment()
        pf_f = PathFunctional(path=p, base=F)
        pf_g = PathFunctional(path=p, base=G)
        scaled = PathFunctional(path=p, base=custom_two_index(
            lambda x, y: 3.5 * F(x, y), "3.5F", validate=False))
        both = PathFunctional(path=p, base=custom_two_index(
            lambda x, y: F(x, y) + G(x, y), "F+G", validate=False))
        assert pathwise_sum(scaled, g) == pytest.approx(3.5 * pathwise_sum(pf_f, g), abs=1e-12)
        assert pathwise_sum(both, g) == pytest.approx(
            pathwise_sum(pf_f, g) + pathwise_sum(pf_g, g), abs=1e-12)

    def test_series_is_cumulative(self):
        p = bm(seed=15)
        g = dyadic_grid(p, 5)
        pf = PathFunctional(path=p, base=squared_increment())
        series = pathwise_series(pf, g)
        assert series[0] == 0.0
        assert series[-1] == pathwise_sum(pf, g)
        assert np.all(np.diff(series) >= 0)

    def test_grid_path_mismatch_rejected(self):
        p1, p2 = bm(seed=1), bm(seed=2)
        pf = PathFunctional(path=p1, base=squared_increment())
        with pytest.raises(ValueError, match="different path"):
            pathwise_sum(pf, dyadic_grid(p2, 3))
        with pytest.raises(ValueError, match="different path"):
            pathwise_series(pf, dyadic_grid(p2, 3))

    @pytest.mark.parametrize("s, t", [(0.5, 2.0), (0.5, 0.5 + 1e-9)],
                             ids=["past_horizon", "between_points"])
    def test_ratio_rejects_times_off_the_path(self, s, t):
        pf = PathFunctional(path=bm(seed=3, n=8), base=squared_increment())
        with pytest.raises(ValueError, match="grid times"):
            squared_increment_ratio(pf, s, t)


class TestStopping:
    def test_stop_at_horizon_is_identity(self):
        p = bm(seed=21)
        pf = PathFunctional(path=p, base=squared_increment())
        g = dyadic_grid(p, 6)
        assert pathwise_sum(stopped_functional(pf, 1.0), g) == pathwise_sum(pf, g)

    def test_stop_at_zero_vanishes(self):
        p = bm(seed=22)
        pf = PathFunctional(path=p, base=squared_increment())
        assert pathwise_sum(stopped_functional(pf, 0.0), dyadic_grid(p, 6)) == 0.0

    def test_stop_matches_truncated_grid(self):
        p = bm(seed=23)
        pf = PathFunctional(path=p, base=squared_increment())
        g = dyadic_grid(p, 6)
        sigma = 0.5
        stopped = pathwise_sum(stopped_functional(pf, sigma), g)
        keep = g.indices[p.times[g.indices] <= sigma]
        x = p.values[keep]
        assert stopped == pytest.approx(float(np.sum((x[1:] - x[:-1]) ** 2)), abs=1e-15)

    def test_sigma_outside_horizon_rejected(self):
        pf = PathFunctional(path=bm(seed=1), base=squared_increment())
        with pytest.raises(ValueError):
            stopped_functional(pf, 2.0)


class TestSquaredIncrementRatio:
    def test_quadratic_normalizes_to_one(self):
        p = bm(seed=31)
        pf = PathFunctional(path=p, base=squared_increment())
        for j in (1, 100, 2000):
            assert squared_increment_ratio(pf, float(p.times[0]), float(p.times[j])) == 1.0

    def test_square_remainder_normalizes_to_one(self):
        g2x = ScalarFn("2x", lambda x: 2.0 * np.asarray(x, dtype=float))
        p = bm(seed=32)
        pf = PathFunctional(path=p, base=linear_remainder(SQUARE, g2x))
        val = squared_increment_ratio(pf, float(p.times[10]), float(p.times[500]))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_flat_pair_is_outside_domain(self):
        p = simulate(BrownianMotion(sigma=0.0, drift=0.0), 8, 1.0, seed=0)
        pf = PathFunctional(path=p, base=squared_increment())
        with pytest.raises(OutsideDomainError):
            squared_increment_ratio(pf, 0.0, 0.5)


@pytest.fixture(scope="module")
def scan_paths():
    return [simulate(BrownianMotion(), 2048, 1.0, seed=s) for s in range(6)]


class TestBoundednessScan:
    def test_lipschitz_derivative_pair_is_bounded(self, scan_paths):
        est, flag = boundedness_scan(linear_remainder(XABS, ABS), scan_paths, "bounded", seed=1)
        assert flag
        # ratios of near-diagonal pairs carry roundoff ~ ulp / move^2; with
        # the default move floor that is at most ~1e-4 on top of the true 1/2
        assert est <= 0.5 + 2e-4

    def test_convex_pair_is_lower_bounded(self, scan_paths):
        est, flag = boundedness_scan(linear_remainder(ABS, SIGN), scan_paths, "lower_bounded", seed=2)
        assert flag
        assert est >= -1e-12

    def test_concave_kink_is_unbounded(self, scan_paths):
        neg_abs = ScalarFn("neg_abs", lambda x: -np.abs(x))
        neg_sign = ScalarFn("neg_sign", lambda x: -np.asarray(SIGN(x), dtype=float))
        est, flag = boundedness_scan(linear_remainder(neg_abs, neg_sign), scan_paths, "bounded", seed=3)
        assert not flag

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            boundedness_scan(squared_increment(), [], "bounded")


class TestLimitInProbability:
    def test_increment_fn_is_grid_independent_exactly(self):
        diag = limit_in_probability(
            increment_fn(ABS), BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [6, 8]},
                     {"scheme": "hitting", "params": [2**-3, 2**-4]}],
            n_paths=40, eps=1e-9, delta=0.05, n_steps=4096, base_seed=5,
        )
        assert diag.verdict
        assert max(diag.cross_tail.values()) == 0.0

    def test_quadratic_converges_with_agreeing_schemes(self):
        diag = limit_in_probability(
            squared_increment(), BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [12, 13, 14]},
                     {"scheme": "hitting", "params": [2**-5, 2**-5.5, 2**-6]}],
            n_paths=120, eps=0.05, delta=0.05, n_steps=2**16, base_seed=7,
        )
        assert diag.verdict
        assert diag.tail_probs["dyadic"][-1] <= 0.05
        assert max(diag.cross_tail.values()) <= 0.05

    def test_first_order_increments_diverge(self):
        absinc = custom_two_index(
            lambda x, y: np.abs(np.asarray(y) - np.asarray(x)), "abs_inc")
        diag = limit_in_probability(
            absinc, BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [6, 8, 10]},
                     {"scheme": "hitting", "params": [2**-3, 2**-4]}],
            n_paths=40, eps=0.05, delta=0.05, n_steps=4096, base_seed=6,
        )
        assert not diag.verdict

    def test_needs_two_schemes(self):
        one = {"scheme": "dyadic", "params": [4]}
        for schemes, message in [
            ([one], "two grid schemes"),
            # same-named schemes would overwrite each other's estimates
            ([one, {"scheme": "dyadic", "params": [6, 7]}], "two grid schemes"),
            ([one, {"scheme": "hitting", "params": []}], "at least one param"),
        ]:
            with pytest.raises(ValueError, match=message):
                limit_in_probability(squared_increment(), BrownianMotion(),
                                     schemes=schemes, n_paths=2)

    def test_serializes_to_json(self):
        diag = limit_in_probability(
            increment_fn(ABS), BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [4, 5]},
                     {"scheme": "hitting", "params": [2**-2]}],
            n_paths=5, n_steps=512, base_seed=1,
        )
        d = diag.to_json_dict()
        assert "estimates" in d and "verdict" in d
        import io

        buf = io.StringIO()
        diag.trace_csv(buf)
        assert buf.getvalue().startswith("scheme,path,level_ordinal,param,estimate")
