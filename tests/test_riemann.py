"""Tests for stopping-time grids and pathwise sums."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathcalc import (
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    ResolutionExhaustedError,
    SamplePath,
    ScalarFn,
    TwoPointLaw,
    UniformLaw,
    boundedness_scan,
    dyadic_grid,
    hitting_grid,
    increment_fn,
    ito_decompose,
    limit_in_probability,
    linear_remainder,
    make_scalar_fn,
    pathwise_sum,
    realized_qv,
    simulate,
    squared_increment,
)
from pathcalc.riemann import _checked_hits, _tail_fractions

ABS = make_scalar_fn("abs")
SQUARE = make_scalar_fn("square")
XABS = make_scalar_fn("x_abs_x_half")
SIGN = make_scalar_fn("sign")


def bm(seed=11, n=4096):
    return simulate(BrownianMotion(), n, 1.0, seed=seed)


JD = JumpDiffusion(sigma=1.0, drift=0.2, rate=6.0, law=UniformLaw(-1.0, 1.0))
CPJ = CompoundPoissonJumps(rate=6.0, law=TwoPointLaw(0.5, 0.3, -0.4))
FV = FiniteVariationPath((0.0, 0.3, 0.7, 1.0), (0.0, 1.5, -0.5, 0.25))
FV5 = FiniteVariationPath((0.0, 0.3, 0.7, 5.0), (0.0, 1.5, -0.5, 0.25))
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
        with pytest.raises(ResolutionExhaustedError,
                           match=r"^eps=1e-06 is below the path resolution heuristic 0\.\d+$"):
            hitting_grid(p, 1e-6)
        # a pure-jump path has heuristic 0, but a jump over 1e-310 overflows
        cpj = simulate(CPJ, 64, 1.0, seed=5)
        with pytest.raises(ResolutionExhaustedError,
                           match=r"^eps=1e-310 is below the float range of the path's moves$"):
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

    @given(models=st.lists(st.sampled_from([BrownianMotion(), JD, CPJ, FV5]),
                           min_size=2, max_size=2),
           path_seeds=st.lists(seeds, min_size=1, max_size=4), n_steps=st.integers(1, 2**12),
           T=st.floats(0.3, 5.0), levels=st.lists(st.integers(0, 14), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_dyadic_matches_union_reference(self, models, path_seeds, n_steps, T, levels):
        # paths of two models in turn on one thread, each at the levels in the drawn
        # order: BM and FV paths share their time grid, jump paths do not
        for k, seed in enumerate(path_seeds):
            p = simulate(models[k % 2], n_steps, T, seed=seed)
            for level in levels:
                g = dyadic_grid(p, level)
                assert np.array_equal(g.indices, reference_dyadic_indices(p, level))
                assert g.mesh == float(np.max(np.diff(p.times[g.indices])))

    def test_dyadic_picks_follow_the_time_grid_and_the_horizon(self):
        uniform = np.linspace(0.0, 1.0, 65)
        for times, horizon, level in ((uniform, 1.0, 6), (uniform, 0.5, 5),
                                      (uniform**2, 1.0, 4), (uniform, 1.0, 4)):
            p = SamplePath(times=times, values=np.zeros(65), pre_values=np.zeros(65),
                           jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]),
                           horizon=horizon)
            assert np.array_equal(dyadic_grid(p, level).indices,
                                  reference_dyadic_indices(p, level))

    def test_dyadic_grids_built_on_two_threads_match_reference(self):
        levels = (11, 9, 10)

        def grids(seed):
            p = simulate(JD if seed % 2 else BrownianMotion(), 2048, 1.0, seed=seed)
            return p, [dyadic_grid(p, level) for level in levels]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(grids, seed) for seed in range(40)]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 40
        for p, gs in results:
            for level, g in zip(levels, gs):
                assert np.array_equal(g.indices, reference_dyadic_indices(p, level))

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -0.25])
    def test_hitting_rejects_eps_not_above_zero(self, eps):
        with pytest.raises(ValueError, match="eps must be > 0"):
            hitting_grid(bm(seed=4, n=64), eps)


DECIMAL_EPS = st.sampled_from([0.05, 0.1, 0.2, 0.3])


def assert_walk_indices(p, eps):
    g = hitting_grid(p, eps)
    assert g.indices.dtype == np.int64
    assert np.array_equal(g.indices, reference_hitting_indices(p, eps))


class TestHittingKernel:
    """The proposed-and-checked grid equals the scalar walk, also where the check fails
    on lattice ties and the walk runs from the first failing index."""

    def test_lattice_ties_run_the_walk_and_keep_its_indices(self):
        fell_back = 0
        for seed in range(30):
            p = simulate(CPJ, 1024, 1.0, seed=seed)
            fell_back += _checked_hits(p.values, 0.05)[2] is not None
            assert_walk_indices(p, 0.05)
        assert fell_back > 0

    @given(seed=seeds, n_steps=st.integers(1, 2**11))
    @settings(max_examples=60, deadline=None)
    def test_two_point_jumps_on_a_decimal_lattice(self, seed, n_steps):
        assert_walk_indices(simulate(CPJ, n_steps, 1.0, seed=seed), 0.05)

    @given(drift=st.sampled_from([0.1, 0.3, 0.35, -0.7, 1.0, 2.5]),
           n_steps=st.sampled_from([10, 20, 50, 100, 1000]), eps=DECIMAL_EPS)
    @settings(max_examples=60, deadline=None)
    def test_drift_ramps(self, drift, n_steps, eps):
        p = simulate(BrownianMotion(sigma=0.0, drift=drift), n_steps, 1.0, seed=0)
        assume(eps >= 2.0 * p.median_continuous_move())
        assert_walk_indices(p, eps)

    @given(knots_t=st.sets(st.integers(1, 9), max_size=4),
           knots_x=st.lists(st.integers(-10, 10), min_size=6, max_size=6),
           n_steps=st.sampled_from([20, 100, 1000, 4096]), eps=DECIMAL_EPS)
    @settings(max_examples=60, deadline=None)
    def test_finite_variation_knots_on_a_decimal_lattice(self, knots_t, knots_x, n_steps, eps):
        times = (0.0, *(t / 10 for t in sorted(knots_t)), 1.0)
        fv = FiniteVariationPath(times, tuple(v / 10 for v in knots_x[:len(times)]))
        p = simulate(fv, n_steps, 1.0, seed=0)
        assume(eps >= 2.0 * p.median_continuous_move())
        assert_walk_indices(p, eps)

    @pytest.mark.parametrize("n_steps", [2**14, 2**16])
    @pytest.mark.parametrize("model", [BrownianMotion(), JD], ids=["bm", "jd"])
    def test_workload_sizes(self, model, n_steps):
        for seed in (1000, 1001):
            p = simulate(model, n_steps, 1.0, seed=seed)
            for eps in (2**-5.5, 2**-6):
                assert_walk_indices(p, eps)

    def test_median_move_is_computed_once(self):
        p = simulate(JD, 1000, 1.0, seed=3)
        first = p.median_continuous_move()
        assert p.median_continuous_move() is first
        assert first == float(np.median(np.abs(p.pre_values[1:] - p.values[:-1])))


class TestGridProperties:
    @given(model=st.sampled_from([CPJ, JD]), seed=seeds,
           n_steps=st.integers(1, 600), level=st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_dyadic_grid_contains_every_jump(self, model, seed, n_steps, level):
        p = simulate(model, n_steps, 1.0, seed=seed)
        g = dyadic_grid(p, level)
        assert set(p.jump_indices.tolist()) <= set(g.indices.tolist())

    @given(model=st.sampled_from([BrownianMotion(), JD, CPJ]), seed=seeds,
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
        # above the resolution heuristic of both paths, so neither call raises; pure-jump
        # paths have heuristic 0
        eps = scale * max(2.0 * p.median_continuous_move(), 2.0 * cut.median_continuous_move(),
                          0.05)
        full = hitting_grid(p, eps).indices
        stopped = hitting_grid(cut, eps).indices
        assert np.array_equal(full[full < k], stopped[stopped < k])


class TestPathwiseSum:
    def test_increment_fn_telescopes_on_any_grid(self):
        p = bm(seed=11)
        for level in (0, 3, 6, 9):
            s = pathwise_sum(increment_fn(ABS), dyadic_grid(p, level))
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
        assert realized_qv(g) == pathwise_sum(squared_increment(), g)
        assert np.max(np.abs(ito_decompose(SQUARE, g).residual)) <= 1e-8

    def test_remainder_sum_equals_qv_for_square(self):
        g2x = ScalarFn("2x", lambda x: 2.0 * np.asarray(x, dtype=float))
        p = bm(seed=13)
        g = dyadic_grid(p, 8)
        assert pathwise_sum(linear_remainder(SQUARE, g2x), g) == pytest.approx(realized_qv(g),
                                                                               abs=1e-12)

    def test_scaling_and_linearity(self):
        p = bm(seed=14)
        g = dyadic_grid(p, 6)
        F = increment_fn(XABS)
        G = squared_increment()
        def scaled(x, y):
            return 3.5 * F(x, y)

        def both(x, y):
            return F(x, y) + G(x, y)

        assert pathwise_sum(scaled, g) == pytest.approx(3.5 * pathwise_sum(F, g), abs=1e-12)
        assert pathwise_sum(both, g) == pytest.approx(
            pathwise_sum(F, g) + pathwise_sum(G, g), abs=1e-12)


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

    def test_concave_kink_is_unbounded(self, scan_paths):
        neg_abs = ScalarFn("neg_abs", lambda x: -np.abs(x))
        neg_sign = ScalarFn("neg_sign", lambda x: -np.asarray(SIGN(x), dtype=float))
        est, flag = boundedness_scan(linear_remainder(neg_abs, neg_sign), scan_paths, "bounded", seed=3)
        assert not flag

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            boundedness_scan(squared_increment(), [], "bounded")

    @pytest.mark.parametrize("bound_type", ["lower_bounded", "Bounded", None])
    def test_only_the_bounded_scan_exists(self, scan_paths, bound_type):
        with pytest.raises(ValueError, match="bound_type must be 'bounded'"):
            boundedness_scan(squared_increment(), scan_paths, bound_type)


class TestLimitInProbability:
    def test_increment_fn_is_grid_independent_exactly(self):
        diag = limit_in_probability(
            increment_fn(ABS), BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [6, 8]},
                     {"scheme": "hitting", "params": [2**-3, 2**-4]}],
            n_paths=40, eps=1e-9, delta=0.05, n_steps=4096, base_seed=5,
        )
        assert _tail_fractions(diag.estimates, 1e-9, 0.05)[2]
        assert max(diag.cross_tail.values()) == 0.0

    def test_quadratic_converges_with_agreeing_schemes(self):
        diag = limit_in_probability(
            squared_increment(), BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [12, 13, 14]},
                     {"scheme": "hitting", "params": [2**-5, 2**-5.5, 2**-6]}],
            n_paths=120, eps=0.05, delta=0.05, n_steps=2**16, base_seed=7,
        )
        tail_probs, _, verdict = _tail_fractions(diag.estimates, 0.05, 0.05)
        assert verdict
        assert tail_probs["dyadic"][-1] <= 0.05
        assert max(diag.cross_tail.values()) <= 0.05

    def test_first_order_increments_diverge(self):
        diag = limit_in_probability(
            lambda x, y: np.abs(np.asarray(y) - np.asarray(x)), BrownianMotion(),
            schemes=[{"scheme": "dyadic", "params": [6, 8, 10]},
                     {"scheme": "hitting", "params": [2**-3, 2**-4]}],
            n_paths=40, eps=0.05, delta=0.05, n_steps=4096, base_seed=6,
        )
        assert not _tail_fractions(diag.estimates, 0.05, 0.05)[2]

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
        d = json.loads(json.dumps(diag.to_json_dict(), allow_nan=False))
        assert set(d) == {"scheme_params", "estimates"}
        # the persisted estimates give back the tail frequencies and the verdict
        estimates = {name: np.array(d["estimates"][name]) for name in d["scheme_params"]}
        fractions = _tail_fractions(estimates, 0.05, 0.05)
        assert fractions == _tail_fractions(diag.estimates, 0.05, 0.05)
        assert fractions[1] == diag.cross_tail
