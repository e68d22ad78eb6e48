"""Tests for stopping-time grids and pathwise sums."""

import gc
import json
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    build_grid,
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
from pathcalc import riemann
from pathcalc.riemann import _checked_hits, _mesh, _tail_fractions

ABS = make_scalar_fn("abs")
SQUARE = make_scalar_fn("square")
XABS = make_scalar_fn("x_abs_x_half")
SIGN = make_scalar_fn("sign")


def bm(seed=11, n=4096):
    return simulate(BrownianMotion(), n, 1.0, seed=seed)


JD = JumpDiffusion(sigma=1.0, drift=0.2, rate=6.0, law=UniformLaw(-1.0, 1.0))
CPJ = CompoundPoissonJumps(rate=6.0, law=TwoPointLaw(0.5, 0.3, -0.4))
# half its drawn jumps are of size 0, and keep their time points: its grids miss an index at
# the least level
ZJD = JumpDiffusion(sigma=1.0, drift=0.0, rate=50.0, law=TwoPointLaw(0.5, 0.0, 1.0))
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


def _record_searched_levels(monkeypatch):
    """The levels that :func:`dyadic_grid` searches from here on, in order."""
    levels = []
    direct = riemann._dyadic_indices

    def recorded(path, level, *pick):
        levels.append(level)
        return direct(path, level, *pick)

    monkeypatch.setattr(riemann, "_dyadic_indices", recorded)
    return levels


def reference_dyadic_indices(p, level):
    """Nearest points to j T / 2^level (ties right), merged with jumps and endpoints by union."""
    targets = p.times[-1] * np.arange(2**level + 1) / 2**level
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
        assert _mesh(g.times) == float(np.max(np.diff(p.times[g.indices])))

    @given(models=st.lists(st.sampled_from([BrownianMotion(), JD, CPJ, FV5, ZJD]),
                           min_size=2, max_size=2),
           path_seeds=st.lists(seeds, min_size=1, max_size=4), n_steps=st.integers(1, 2**12),
           T=st.floats(0.3, 5.0), levels=st.lists(st.integers(0, 14), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_dyadic_matches_union_reference(self, models, path_seeds, n_steps, T, levels):
        # paths of two models in turn on one thread, each at the levels in the drawn
        # order: BM and FV paths share their time grid, jump paths do not, and each path's
        # picks at a level coarser than one searched before are strided from that search
        for k, seed in enumerate(path_seeds):
            p = simulate(models[k % 2], n_steps, T, seed=seed)
            for level in levels:
                g = dyadic_grid(p, level)
                assert np.array_equal(g.indices, reference_dyadic_indices(p, level))
                assert _mesh(g.times) == float(np.max(np.diff(p.times[g.indices])))

    @given(model=st.sampled_from([BrownianMotion(), JD]), seed=seeds,
           n_steps=st.integers(1, 64), levels=st.lists(st.integers(0, 12), min_size=1,
                                                       max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_levels_past_every_index_match_the_direct_construction(self, model, seed,
                                                                   n_steps, levels):
        # past 2^level >= 2 n_points - 2 the grid is searched at that least level first,
        # and at the level asked for only when that grid misses an index
        p = simulate(model, n_steps, 1.0, seed=seed)
        for level in levels:
            g = dyadic_grid(p, level)
            assert g.indices.dtype == np.int64 and g.param == float(level)
            assert np.array_equal(g.indices, reference_dyadic_indices(p, level))

    def test_dyadic_picks_follow_the_time_grid(self):
        uniform = np.linspace(0.0, 1.0, 65)
        # a level past 7 is searched at 7 first: the uniform grid holds every index there,
        # the squared one, with shorter cells near 0, only from level 11 on
        for times, level in ((uniform, 6), (uniform**2, 4), (uniform, 4), (uniform, 9),
                             (uniform**2, 10), (uniform**2, 16)):
            p = SamplePath(times=times, values=np.zeros(65), pre_values=np.zeros(65),
                           jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]))
            assert np.array_equal(dyadic_grid(p, level).indices,
                                  reference_dyadic_indices(p, level))

    @pytest.mark.parametrize("times, level, searched", [
        (np.linspace(0.0, 1.0, 65), 5, [5]),
        (np.linspace(0.0, 1.0, 65), 7, [7]),
        (np.linspace(0.0, 1.0, 65), 40, [7]),
        (np.linspace(0.0, 1.0, 65)**2, 16, [7, 16]),
    ], ids=["coarse", "least", "uniform_40", "squared_16"])
    def test_a_level_past_every_index_searches_at_most_two_levels(self, monkeypatch, times,
                                                                  level, searched):
        # 65 points hold every index of a uniform grid from level 7 on; a grid that misses
        # one there (short cells) is searched at the level asked for, and at no level in
        # between
        levels = _record_searched_levels(monkeypatch)
        p = SamplePath(times=times, values=np.zeros(65), pre_values=np.zeros(65),
                       jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]))
        g = dyadic_grid(p, level)
        assert levels == searched and g.param == float(level)
        if level <= 16:
            assert np.array_equal(g.indices, reference_dyadic_indices(p, level))

    @given(start=st.sampled_from([0.0, 0.0, 0.3, 2.0, -1.0, -2.0]),
           gaps=st.lists(st.sampled_from([1e-12, 3e-10, 1e-6, 0.01, 0.125, 0.25, 0.3, 0.5, 1.0]),
                         min_size=1, max_size=40),
           level=st.integers(0, 18))
    @settings(max_examples=300, deadline=None)
    # target 1/2 lies midway between the points at 1/4 and 3/4 and goes to 3/4
    @example(start=0.0, gaps=[0.25, 0.5, 0.25], level=1)
    def test_per_point_picks_match_the_target_search(self, start, gaps, level):
        # irregular grids, some starting above 0 and some ending at or below it, with cells
        # far shorter and far longer than T / 2^level and times on the targets (ties)
        times = start + np.concatenate(([0.0], np.cumsum(gaps)))
        assume(np.all(np.diff(times) > 0))
        self._assert_per_point_picks(times, level)

    @pytest.mark.parametrize("seed", range(40))
    def test_per_point_picks_match_on_zero_size_jump_paths(self, seed):
        # a drawn jump of size 0 keeps its time point: most of these grids miss an index at
        # the least level, so dyadic_grid tests their points one by one at finer levels
        p = simulate(JumpDiffusion(sigma=1.0, drift=0.0, rate=50.0,
                                   law=TwoPointLaw(0.5, 0.0, 1.0)), 64, 1.0, seed=seed)
        for level in (0, 3, 5, 8, 12, 16):
            self._assert_per_point_picks(p.times, level)

    @staticmethod
    def _assert_per_point_picks(times, level):
        marked = np.zeros(len(times), dtype=bool)
        marked[riemann._nearest_picks(times, level)] = True
        assert np.array_equal(riemann._held_picks(times, level),
                              np.flatnonzero(marked[1:-1]) + 1)

    def test_a_short_cell_at_level_40_holds_every_point(self, monkeypatch):
        # level 40 would be 2^40 + 1 targets: the points are tested one by one instead
        levels = _record_searched_levels(monkeypatch)
        times = np.array([0.0, 0.5, 0.5 + 1e-12, 0.5 + 2e-12, 1.0])
        p = SamplePath(times=times, values=np.zeros(5), pre_values=np.zeros(5),
                       jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]))
        g = dyadic_grid(p, 40)
        assert levels == [3, 40] and g.param == 40.0
        assert g.indices.tolist() == [0, 1, 2, 3, 4]
        assert dyadic_grid(p, 53).indices.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("scale, level", [(1.0, 54), (1.0, 1000), (1e300, 53)])
    def test_a_level_past_the_float_resolution_is_exhausted(self, scale, level):
        # past 2^53 a target index is not a float, and at T 2^level = inf no target is
        times = scale * np.array([0.0, 0.5, 0.5 + 1e-12, 0.5 + 2e-12, 1.0])
        p = SamplePath(times=times, values=np.zeros(5), pre_values=np.zeros(5),
                       jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]))
        with pytest.raises(ResolutionExhaustedError,
                           match=rf"^dyadic level {level} is past the float resolution"):
            dyadic_grid(p, level)

    def test_a_jump_path_holds_every_index_at_the_least_level(self, monkeypatch):
        levels = _record_searched_levels(monkeypatch)
        p = simulate(JD, 512, 1.0, seed=3)
        assert len(p.jump_indices) > 0
        least = (2 * p.n_points - 3).bit_length()
        g = dyadic_grid(p, least + 3)
        assert levels == [least] and len(g) == p.n_points

    def test_dyadic_grids_built_on_two_threads_match_reference(self):
        levels = (11, 9, 10)

        def grids(seed):
            p = simulate((BrownianMotion(), JD, ZJD)[seed % 3], 2048, 1.0, seed=seed)
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

    @pytest.mark.parametrize("level", [3.0, 3.5, True, -1, "3", None])
    def test_a_level_that_is_not_an_integer_is_a_value_error(self, level):
        p = bm(seed=4, n=64)
        with pytest.raises(ValueError, match=r"^level must be an integer >= 0, got "):
            dyadic_grid(p, level)
        with pytest.raises(ValueError, match=r"^level must be an integer >= 0, got "):
            build_grid(p, "dyadic", level)

    def test_a_rejected_level_leaves_the_picks_as_they_were(self):
        # a float level once went into the picks memo, and the next integer level on that
        # time grid raised a TypeError from its slice
        p = bm(seed=4, n=64)
        dyadic_grid(p, 5)
        memo = riemann._picks[id(p.times)]
        with pytest.raises(ValueError):
            dyadic_grid(p, 3.0)
        assert riemann._picks[id(p.times)] is memo
        g = dyadic_grid(p, 2)
        assert g.param == 2.0 and np.array_equal(g.indices, reference_dyadic_indices(p, 2))

    def test_a_numpy_integer_level_is_accepted(self):
        p = bm(seed=4, n=64)
        g = dyadic_grid(p, np.int64(3))
        assert g.param == 3.0 and np.array_equal(g.indices, dyadic_grid(p, 3).indices)
        assert np.array_equal(build_grid(p, "dyadic", np.int64(3)).indices, g.indices)

    def test_picks_searched_on_one_thread_serve_every_thread(self, monkeypatch):
        # one memo for the process: the picks that a pool thread searched at level 6 give
        # level 4 here, strided, without a search, though another time grid was searched since
        p = bm(seed=4, n=64)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(dyadic_grid, p, 6).result(timeout=60)
        dyadic_grid(simulate(JD, 64, 1.0, seed=1), 3)
        searched = []
        nearest = riemann._nearest_picks
        monkeypatch.setattr(riemann, "_nearest_picks",
                            lambda times, level: searched.append(level) or nearest(times, level))
        g = dyadic_grid(p, 4)
        assert searched == []
        assert np.array_equal(g.indices, reference_dyadic_indices(p, 4))

    def test_jump_paths_leave_the_shared_time_grid_its_picks(self, monkeypatch):
        # jump-free paths of one (n_steps, T) share a time grid, searched once, though jump
        # paths, each with a time grid of its own, are gridded between them
        monkeypatch.setattr(riemann, "_picks", {})
        searched = []
        nearest = riemann._nearest_picks
        monkeypatch.setattr(riemann, "_nearest_picks",
                            lambda times, level: searched.append(times) or nearest(times, level))
        paths = [simulate(model, 1024, 1.0, seed=seed)
                 for seed in range(6) for model in (BrownianMotion(), JD)]
        for p in paths:
            assert np.array_equal(dyadic_grid(p, 9).indices, reference_dyadic_indices(p, 9))
        jump_free = [p for p in paths if len(p.jump_indices) == 0]
        assert len(jump_free) >= 6 and len(searched) == len(paths) - len(jump_free) + 1

    def test_the_picks_memo_keeps_no_path_alive(self):
        # every path's picks go through the one memo, whose entries go with their time grids:
        # gridding jump paths finest first keeps none of them alive
        alive = []
        for seed in (0, 1, 2, 3, 5, 6):
            p = simulate(JD, 1024, 1.0, seed=seed)
            assert len(p.jump_indices) > 0
            for level in (10, 8, 5):
                dyadic_grid(p, level)
            alive.append(weakref.ref(p.times))
        del p
        gc.collect()
        assert all(ref() is None for ref in alive)

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
        )
        # above the resolution heuristic of both paths, so neither call raises; pure-jump
        # paths have heuristic 0
        eps = scale * max(2.0 * p.median_continuous_move(), 2.0 * cut.median_continuous_move(),
                          0.05)
        full = hitting_grid(p, eps).indices
        stopped = hitting_grid(cut, eps).indices
        assert np.array_equal(full[full < k], stopped[stopped < k])

    @given(model=st.sampled_from([BrownianMotion(), JD, CPJ]), seed=seeds,
           n_steps=st.integers(1, 600), cut_at=st.floats(0.0, 1.0),
           scale=st.sampled_from([-3.0, -1.0, 0.5, 2.0]), kick=st.floats(0.01, 1.0),
           eps=st.floats(0.01, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_hitting_grid_does_not_look_past_its_index(self, model, seed, n_steps, cut_at,
                                                        scale, kick, eps):
        """A path that equals another up to index c, and moves otherwise after it, has the
        same hitting indices up to c: whether i is a hit depends on the path up to i."""
        p = simulate(model, n_steps, 1.0, seed=seed)
        c = int(cut_at * (p.n_points - 2))
        # after c: each continuous move and each jump size scaled, plus a first move of kick
        moves = scale * (p.pre_values[1:] - p.values[:-1])
        moves[c] += kick
        sizes = scale * p.jump_size_at()
        values, pre = p.values.copy(), p.pre_values.copy()
        for i in range(c + 1, p.n_points):
            pre[i] = values[i - 1] + moves[i - 1]
            values[i] = pre[i] + sizes[i]
        after = p.jump_indices > c
        jump_sizes = np.where(after, sizes[p.jump_indices], p.jump_sizes)
        q = SamplePath(times=p.times, values=values, pre_values=pre,
                       jump_indices=p.jump_indices, jump_sizes=jump_sizes)
        assert np.array_equal(q.values[:c + 1], p.values[:c + 1])
        assume(not np.array_equal(q.values[c + 1:], p.values[c + 1:]))
        # at or above the resolution heuristic of both paths
        eps = max(eps, 2.0 * p.median_continuous_move(), 2.0 * q.median_continuous_move())
        first, second = hitting_grid(p, eps).indices, hitting_grid(q, eps).indices
        assert np.array_equal(first[first <= c], second[second <= c])


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
