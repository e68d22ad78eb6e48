"""Tests for seeded path simulation and jump bookkeeping."""

import dataclasses
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    SamplePath,
    TwoPointLaw,
    UniformLaw,
    dyadic_grid,
    realized_qv,
    simulate,
)
from pathcalc import paths as paths_module
from pathcalc.paths import _median, law_from_dict, model_from_dict, seeded_rng

JD = JumpDiffusion(sigma=1.0, drift=0.2, rate=3.0, law=UniformLaw(-1.4, 1.4))
CPJ = CompoundPoissonJumps(rate=6.0, law=UniformLaw(-1.5, 1.5))


class TestJumpLaws:
    def test_moments(self):
        tp = TwoPointLaw(0.5, 1.0, -1.0)
        assert tp.mean == 0.0 and tp.second_moment == 1.0
        u = UniformLaw(0.0, 1.0)
        assert u.mean == 0.5 and u.second_moment == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPointLaw(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            UniformLaw(1.0, 0.0)


UNIFORM = {"kind": "uniform", "lo": -1.0, "hi": 1.0}


class TestFromDict:
    @pytest.mark.parametrize("d, expected", [
        ({"kind": "bm"}, BrownianMotion(1.0, 0.0, 0.0)),
        ({"kind": "bm", "sigma": 2, "x0": 1.0}, BrownianMotion(2.0, 0.0, 1.0)),
        ({"kind": "cpj", "rate": 3.0, "law": UNIFORM},
         CompoundPoissonJumps(3.0, UniformLaw(-1.0, 1.0))),
        ({"kind": "jd", "rate": 3.0,
          "law": {"kind": "two_point", "p": 0.5, "a1": 0.8, "a2": -0.8}},
         JumpDiffusion(1.0, 0.0, 3.0, TwoPointLaw(0.5, 0.8, -0.8))),
        ({"kind": "fv", "knots_t": [0, 1], "knots_x": (0.0, 2.0)},
         FiniteVariationPath((0.0, 1.0), (0.0, 2.0))),
    ])
    def test_builds_the_model_with_its_defaults(self, d, expected):
        assert model_from_dict(d) == expected

    @pytest.mark.parametrize("d, message", [
        ({"kind": "bm", "rate": 3.0, "law": UNIFORM}, "unknown key 'law' in a bm path model"),
        ({"kind": "cpj", "sigma": 2.0, "rate": 3.0, "law": UNIFORM},
         "unknown key 'sigma' in a cpj path model"),
        ({"kind": "fv", "knots_t": [0, 1], "knots_x": [0, 1], "x0": 1.0}, "unknown key 'x0'"),
        ({"kind": "cpj", "law": UNIFORM}, "missing key 'rate'"),
        ({"kind": "jd", "rate": 1.0}, "missing key 'law'"),
        ({"sigma": 1.0}, "missing key 'kind'"),
        ({"kind": "ou"}, "unknown path model kind 'ou'"),
        ({"kind": "bm", "sigma": "1"}, "sigma must be a number"),
        ({"kind": "bm", "sigma": True}, "sigma must be a number"),
        ({"kind": "fv", "knots_t": "01", "knots_x": [0, 1]}, "knots_t must be a list"),
        ("bm", "a path model must be a JSON object"),
        ({"kind": "fv", "knots_t": [0, 1], "knots_x": [0, 1, 2]},
         "knots_x must hold one value per knot of knots_t, got 3 values for 2 knots"),
    ])
    def test_model_dict_errors_are_value_errors(self, d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            model_from_dict(d)

    @pytest.mark.parametrize("d, message", [
        ({"kind": "uniform", "lo": 0.0, "hi": 1.0, "p": 0.5}, "unknown key 'p' in a uniform"),
        ({"kind": "two_point", "p": 0.5, "a1": 1.0, "a2": -1.0, "std": 1.0},
         "unknown key 'std' in a two_point"),
        ({"kind": "uniform", "lo": 0.0}, "missing key 'hi'"),
        ({"lo": 0.0, "hi": 1.0}, "missing key 'kind'"),
        ({"kind": "cauchy"}, "unknown jump law kind 'cauchy'"),
        ({"kind": "normal", "mean": 0.0, "std": 0.8}, "unknown jump law kind 'normal'"),
    ])
    def test_law_dict_errors_are_value_errors(self, d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            law_from_dict(d)

    def test_a_law_error_inside_a_model(self):
        with pytest.raises(ValueError, match="^unknown key 'sigma' in a uniform jump law"):
            model_from_dict({"kind": "cpj", "rate": 1.0,
                             "law": {"kind": "uniform", "lo": 0.0, "hi": 1.0, "sigma": 1.0}})


class TestSimulate:
    def test_bit_identical_reproduction(self):
        p1 = simulate(JD, 1024, 1.0, seed=7)
        p2 = simulate(JD, 1024, 1.0, seed=7)
        assert np.array_equal(p1.times, p2.times)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.pre_values, p2.pre_values)
        assert np.array_equal(p1.jump_sizes, p2.jump_sizes)

    def test_different_seeds_differ(self):
        p1 = simulate(BrownianMotion(), 64, 1.0, seed=1)
        p2 = simulate(BrownianMotion(), 64, 1.0, seed=2)
        assert not np.array_equal(p1.values, p2.values)

    def test_pure_drift_path_equals_times(self):
        p = simulate(BrownianMotion(sigma=0.0, drift=1.0), 16, 1.0, seed=0)
        assert np.array_equal(p.values, p.times)

    def test_finite_variation_linear(self):
        p = simulate(FiniteVariationPath((0.0, 1.0), (0.0, 1.0)), 8, 1.0, seed=0)
        assert len(p.jump_indices) == 0
        assert np.array_equal(p.values, np.arange(9) / 8)

    def test_jump_invariants(self):
        p = simulate(JD, 512, 1.0, seed=13)
        assert len(p.jump_indices) > 0
        assert np.all(np.diff(p.times) > 0)
        # post-jump state is exactly the left limit plus the recorded size
        assert np.array_equal(p.values[p.jump_indices],
                              p.pre_values[p.jump_indices] + p.jump_sizes)
        off = np.setdiff1d(np.arange(p.n_points), p.jump_indices)
        assert np.array_equal(p.values[off], p.pre_values[off])

    def test_poisson_jump_count_mean(self):
        model = CompoundPoissonJumps(rate=2.0, law=TwoPointLaw(0.5, 1.0, -1.0))
        counts = [len(simulate(model, 8, 1.0, seed=s).jump_indices) for s in range(10_000)]
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - 2.0) <= 3 * se

    def test_terminal_variance_matches_model(self):
        sigma = 0.7
        xs = [simulate(BrownianMotion(sigma=sigma), 32, 1.0, seed=s).values[-1]
              for s in range(10_000)]
        xs = np.asarray(xs)
        var = xs.var(ddof=1)
        se = var * np.sqrt(2.0 / (len(xs) - 1))  # SE of a normal variance estimate
        assert abs(var - sigma**2) <= 3 * se

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BrownianMotion(sigma=-1.0)
        with pytest.raises(ValueError):
            JumpDiffusion(sigma=1.0, drift=0.0, rate=-1.0, law=UniformLaw(0, 1))


    @pytest.mark.parametrize("n_steps", [0, -1, 2.5, 8.0, True, "8", None])
    def test_n_steps_that_is_not_a_count_is_a_value_error(self, n_steps):
        with pytest.raises(ValueError, match=r"^n_steps must be an integer >= 1, got "):
            simulate(BrownianMotion(), n_steps, 1.0, seed=0)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("inf"), float("-inf"), float("nan"),
                                   True, "1.0", None])
    def test_T_that_is_not_finite_and_positive_is_a_value_error(self, T):
        paths_module._uniform_grid(8, 1.0)
        calls = paths_module._uniform_grid.cache_info()
        with pytest.raises(ValueError, match=r"^T must be finite and > 0, got "):
            simulate(BrownianMotion(), 8, T, seed=0)
        # rejected before the process's time grid is looked up
        assert paths_module._uniform_grid.cache_info() == calls

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.25],
                             ids=["nan", "inf", "repeated"])
    def test_hand_built_times_are_checked(self, bad):
        shared = simulate(BrownianMotion(), 8, 1.0, seed=0)
        times = shared.times.copy()
        times[3] = bad
        with pytest.raises(ValueError, match="^times must be finite and strictly increasing$"):
            SamplePath(times=times, values=shared.values, pre_values=shared.values,
                       jump_indices=shared.jump_indices, jump_sizes=shared.jump_sizes)

    def test_integer_arguments_of_numpy_types_are_accepted(self):
        p = simulate(BrownianMotion(), np.int64(8), np.float64(1.0), seed=0)
        q = simulate(BrownianMotion(), 8, 1, seed=0)
        assert np.array_equal(p.values, q.values) and p.n_points == 9


def _nine_points(jump_indices, jump_sizes, values=None, pre_values=None):
    """A hand-built 9-point path on [0, 1] with the given jump entries."""
    values = np.arange(9.0) if values is None else values
    return SamplePath(times=np.linspace(0.0, 1.0, 9), values=values,
                      pre_values=values if pre_values is None else pre_values,
                      jump_indices=np.asarray(jump_indices, dtype=np.int64),
                      jump_sizes=np.asarray(jump_sizes, dtype=float))


class TestHandBuiltPaths:
    """The horizon of a path is its last time, and its jump entries agree with its values."""

    def test_a_path_has_no_horizon_field(self):
        p = simulate(BrownianMotion(), 8, 2.5, seed=0)
        assert "horizon" not in {f.name for f in dataclasses.fields(SamplePath)}
        assert p.times[-1] == 2.5
        with pytest.raises(TypeError, match="horizon"):
            SamplePath(times=p.times, values=p.values, pre_values=p.values,
                       jump_indices=p.jump_indices, jump_sizes=p.jump_sizes, horizon=2.5)

    @pytest.mark.parametrize("size, values_apart", [(0.0, False), (-0.0, False), (0.5, False),
                                                    (0.5, True)],
                             ids=["size_0", "size_minus_0", "equal_left_limit", "other_size"])
    def test_a_jump_entry_that_contradicts_the_path_is_a_value_error(self, size, values_apart):
        # with values apart at index 3 by 0.25, a size of 0.5 does not add up either
        pre = np.arange(9.0)
        values = pre + (np.arange(9) == 3) * 0.25 if values_apart else pre
        with pytest.raises(ValueError, match="^each jump must be a nonzero size"):
            _nine_points([3], [size], values, pre)

    def test_jump_entries_of_unequal_lengths_are_a_value_error(self):
        with pytest.raises(ValueError, match="^jump_indices and jump_sizes must have equal"):
            _nine_points([3, 5], [0.5])

    def test_a_jump_that_adds_up_is_kept(self):
        values = np.arange(9.0)
        values[3:] += 0.5
        pre = values.copy()
        pre[3] -= 0.5
        p = _nine_points([3], [0.5], values, pre)
        assert p.jump_indices.tolist() == [3] and p.jump_size_at()[3] == 0.5
        assert len(dyadic_grid(p, 1)) == 4


def _general_simulate(model, n_steps, T, seed, jump_times=None):
    """(times, values, pre_values) of a path built the general way, jumps or none: a
    fresh time grid refined by the jump times, and the jump offsets added to the
    continuous part.  Given sorted ``jump_times``, it draws none of its own."""
    rng = seeded_rng(seed)
    base = np.linspace(0.0, T, n_steps + 1)
    if isinstance(model, FiniteVariationPath):
        values = np.interp(base, model.knots_t, model.knots_x)
        return base, values, values.copy()
    if model.rate > 0:
        if jump_times is None:
            jump_times = np.sort(rng.uniform(0.0, T, size=int(rng.poisson(model.rate * T))))
        jump_sizes = np.asarray(model.law.sample(rng, len(jump_times)), dtype=float)
        keep = ~np.isin(jump_times, base)
        jump_times, jump_sizes = jump_times[keep], jump_sizes[keep]
        if len(jump_times) > 1:
            keep = np.concatenate(([True], np.diff(jump_times) > 0))
            jump_times, jump_sizes = jump_times[keep], jump_sizes[keep]
    else:
        jump_times, jump_sizes = np.array([]), np.array([])
    times = np.sort(np.concatenate([base, jump_times]))
    jump_idx = np.searchsorted(times, jump_times)
    dt = np.diff(times)
    if model.sigma > 0 or model.drift != 0.0:
        incr = model.drift * dt + model.sigma * np.sqrt(dt) * rng.normal(size=len(dt))
    else:
        incr = np.zeros(len(dt))
    cont = model.x0 + np.concatenate(([0.0], np.cumsum(incr)))
    at = np.zeros(len(times))
    at[jump_idx] = jump_sizes
    offsets = np.cumsum(at)
    values = cont + offsets
    pre_values = values.copy()
    pre_values[jump_idx] = cont[jump_idx] + (offsets - at)[jump_idx]
    values[jump_idx] = pre_values[jump_idx] + jump_sizes
    return times, values, pre_values


def _bits(a) -> np.ndarray:
    """The bit patterns of a float array, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


JUMP_FREE_MODELS = st.one_of(
    st.builds(BrownianMotion, sigma=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
              drift=st.sampled_from([0.0, -0.0, 0.2, -1.5]),
              x0=st.sampled_from([0.0, -0.0, 1.0, -3.25])),
    st.builds(JumpDiffusion, sigma=st.sampled_from([0.0, 1.0]), drift=st.sampled_from([0.0, 0.4]),
              rate=st.just(0.0), law=st.just(UniformLaw(-1.4, 1.4)),
              x0=st.sampled_from([0.0, -0.0, 0.5])),
    st.builds(CompoundPoissonJumps, rate=st.just(0.0), law=st.just(UniformLaw(-1.0, 1.0)),
              x0=st.sampled_from([0.0, -0.0, 2.0])),
    st.just(FiniteVariationPath((0.0, 0.3, 5.0), (0.0, 1.0, -0.5))),
)

# jump models whose draw may leave no jump: at rate 1e-9 almost every draw does, at rate
# 0.5 between e^-2.5 and e^-0.15 of them
SOMETIMES_JUMPING_MODELS = st.one_of(
    st.builds(JumpDiffusion, sigma=st.sampled_from([0.0, 1.0]), drift=st.sampled_from([0.0, 0.4]),
              rate=st.sampled_from([1e-9, 0.5]), law=st.just(UniformLaw(-1.4, 1.4)),
              x0=st.sampled_from([0.0, -0.0, 0.5])),
    st.builds(CompoundPoissonJumps, rate=st.sampled_from([1e-9, 0.5]),
              law=st.just(TwoPointLaw(0.5, 1.0, -1.0)), x0=st.sampled_from([0.0, -0.0, 2.0])),
)


class TestJumpFreePaths:
    """A path without jumps shares its thread's read-only time grid and its left limits
    are its values; its arrays are those of the general construction bit for bit."""

    @given(model=JUMP_FREE_MODELS, n_steps=st.integers(1, 2**12), T=st.floats(0.3, 5.0),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=120, deadline=None)
    def test_equals_the_general_construction(self, model, n_steps, T, seed):
        p = simulate(model, n_steps, T, seed=seed)
        times, values, pre_values = _general_simulate(model, n_steps, T, seed)
        assert np.array_equal(_bits(p.times), _bits(times))
        assert np.array_equal(_bits(p.values), _bits(values))
        assert np.array_equal(_bits(p.pre_values), _bits(pre_values))
        assert p.pre_values is p.values
        assert len(p.jump_indices) == len(p.jump_sizes) == 0
        assert p.jump_indices.dtype == np.int64
        for arr in (p.times, p.values, p.jump_indices, p.jump_sizes):
            assert not arr.flags.writeable
        assert p.median_continuous_move() == float(np.median(np.abs(np.diff(values))))

    @given(model=SOMETIMES_JUMPING_MODELS, n_steps=st.integers(1, 2**12),
           T=st.floats(0.3, 5.0), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=120, deadline=None)
    def test_a_jump_model_that_draws_no_jump_gives_a_jump_free_path(self, model, n_steps, T,
                                                                    seed):
        p = simulate(model, n_steps, T, seed=seed)
        times, values, pre_values = _general_simulate(model, n_steps, T, seed)
        assert np.array_equal(_bits(p.times), _bits(times))
        assert np.array_equal(_bits(p.values), _bits(values))
        assert np.array_equal(_bits(p.pre_values), _bits(pre_values))
        grid = paths_module._uniform_grid(n_steps, T)[0]
        if len(p.jump_indices) == 0:
            assert p.pre_values is p.values
            assert p.times is grid
        else:
            # a time grid of the path's own, refined by its jump times
            assert not np.shares_memory(p.times, grid)
            assert p.n_points == n_steps + 1 + len(p.jump_indices)

    @given(seed=st.integers(0, 2**64 - 1), n_steps=st.integers(1, 2**10))
    @settings(max_examples=40, deadline=None)
    def test_paths_with_jumps_keep_the_general_construction(self, seed, n_steps):
        p = simulate(JD, n_steps, 1.0, seed=seed)
        times, values, pre_values = _general_simulate(JD, n_steps, 1.0, seed)
        assert np.array_equal(_bits(p.times), _bits(times))
        assert np.array_equal(_bits(p.values), _bits(values))
        assert np.array_equal(_bits(p.pre_values), _bits(pre_values))

    @pytest.mark.parametrize("model", [JD, CompoundPoissonJumps(rate=6.0,
                                                                 law=TwoPointLaw(0.5, 0.0, 1.0))])
    @pytest.mark.parametrize("T, forced", [
        # grid collisions at 0, 1/8, 1/2 and T, a time drawn three times, a collision drawn
        # twice, and times between grid points
        (1.0, [0.0, 0.125, 0.3, 0.3, 0.3, 0.5, 0.5, 0.7, 1.0]),
        (0.3, [0.0, 0.0375, 0.1, 0.1, 0.15, 0.29, 0.3]),
        (1.0, [0.25, 0.25, 0.75]),  # every time on the grid: no jump time is left
        (1.0, [0.6, 0.6]),
        (1.0, [0.01]),
        (1.0, []),
    ])
    def test_forced_collisions_keep_the_general_construction(self, monkeypatch, model, T,
                                                             forced):
        # grid collisions and coincident times have probability 0, so they are forced here
        forced = np.array(forced)
        monkeypatch.setattr(paths_module, "_poisson_events", lambda rng, rate, T, n_paths: (
            np.array([len(forced)]), np.zeros(len(forced), dtype=np.int64), forced))
        for seed in range(5):
            p = simulate(model, 8, T, seed=seed)
            times, values, pre_values = _general_simulate(model, 8, T, seed, jump_times=forced)
            assert np.array_equal(_bits(p.times), _bits(times))
            assert np.array_equal(_bits(p.values), _bits(values))
            assert np.array_equal(_bits(p.pre_values), _bits(pre_values))
            assert np.array_equal(p.jump_indices, np.flatnonzero(values != pre_values))

    def test_paths_of_one_grid_share_its_times(self):
        p = simulate(BrownianMotion(), 64, 1.0, seed=1)
        q = simulate(FiniteVariationPath((0.0, 1.0), (0.0, 1.0)), 64, 1.0, seed=2)
        r = simulate(BrownianMotion(), 32, 1.0, seed=1)
        assert p.times is q.times
        assert r.times is not p.times
        # a path with jumps owns its times and leaves the process's grid as it was
        jd = simulate(JD, 32, 1.0, seed=3)
        assert jd.times is not r.times and paths_module._uniform_grid(32, 1.0)[0] is r.times
        with pytest.raises(ValueError, match="read-only"):
            p.values[0] = 1.0

    def test_two_grids_on_two_threads_match_a_serial_build(self):
        configs = [(512, 1.0), (300, 2.5)]
        jobs = [(configs[k % 2], k) for k in range(40)]

        def build(job):
            (n_steps, T), seed = job
            return simulate(BrownianMotion(sigma=0.8, drift=0.1), n_steps, T, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(build, job) for job in jobs]
                results = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(jobs)
        for ((n_steps, T), seed), p in zip(jobs, results):
            times, values, _ = _general_simulate(BrownianMotion(sigma=0.8, drift=0.1),
                                                 n_steps, T, seed)
            assert np.array_equal(_bits(p.times), _bits(times))
            assert np.array_equal(_bits(p.values), _bits(values))


class TestMedian:
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1.0, 2.5, 3.0]),
                                      st.floats(0.0, 10.0)), min_size=1, max_size=64),
           scale=st.sampled_from([1e-8, 1e-3, 1.0, 7.0, 1e8]))
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_median_bitwise(self, values, scale):
        a = np.asarray(values) * scale
        assert _bits([_median(a.copy())]) == _bits([np.median(a)])

    @pytest.mark.parametrize("a", [[3.0], [2.0, 1.0], [1.0, 1.0], [0.1, 0.2], [5.0, 1.0, 1.0],
                                   [4.0, 1.0, 3.0, 2.0], [1e8, 3e8], [0.0, 5e-324]])
    def test_short_and_tied_arrays(self, a):
        a = np.asarray(a)
        assert _bits([_median(a.copy())]) == _bits([np.median(a)])


class TestSeededRng:
    def test_same_stream_as_the_integer_key(self):
        rng = np.random.default_rng(5)
        seeds = [0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1,
                 *(int(s) for s in rng.integers(0, 2**63, size=50, dtype=np.uint64) * 2 + 1)]
        for seed in seeds:
            expected = np.random.Generator(np.random.Philox(key=seed)).random(3)
            assert np.array_equal(seeded_rng(seed).random(3), expected), seed

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.7, 2.9, True, np.float64(1.0), "1"])
    def test_out_of_range_seed_is_a_value_error(self, seed):
        # nor is a float or a bool truncated to an integer key
        with pytest.raises(ValueError, match="seed"):
            seeded_rng(seed)
        with pytest.raises(ValueError, match="seed"):
            simulate(BrownianMotion(), 16, 1.0, seed=seed)


class TestRealizedQV:
    def test_finite_variation_qv_decreases_to_zero(self):
        p = simulate(FiniteVariationPath((0.0, 1.0), (0.0, 1.0)), 2**12, 1.0, seed=0)
        qvs = [realized_qv(dyadic_grid(p, lv)) for lv in (4, 6, 8, 10)]
        assert all(b < a for a, b in zip(qvs[:-1], qvs[1:]))
        assert qvs[-1] == pytest.approx(2.0**-10, rel=1e-9)

    def test_pure_jump_two_point_qv(self):
        model = CompoundPoissonJumps(rate=2.0, law=TwoPointLaw(0.5, 1.0, -1.0))
        for seed in range(100):
            p = simulate(model, 64, 1.0, seed=seed)
            if len(p.jump_indices) == 2:
                break
        else:
            pytest.fail("no seed with exactly two jumps")
        assert realized_qv(dyadic_grid(p, 3)) == pytest.approx(2.0, abs=1e-12)

    def test_bm_qv_concentrates_at_t(self):
        qvs = [realized_qv(dyadic_grid(p, 10))
               for p in (simulate(BrownianMotion(), 2**10, 1.0, seed=s) for s in range(300))]
        assert 0.95 <= float(np.mean(qvs)) <= 1.05


class TestCsvRoundTrip:
    @pytest.mark.parametrize("model", [
        BrownianMotion(), JD, CPJ, CompoundPoissonJumps(rate=4.0, law=TwoPointLaw(0.5, 1.0, -1.0)),
        FiniteVariationPath((0.0, 0.4, 1.0), (0.0, 0.8, 0.3)),
    ], ids=["bm", "jd", "cpj", "cpj_two_point", "fv"])
    def test_round_trip_preserves_everything(self, tmp_path, model):
        p = simulate(model, 256, 1.0, seed=21)
        f = tmp_path / "path.csv"
        p.to_csv(f)
        q = SamplePath.from_csv(f)
        assert np.array_equal(p.times, q.times)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.pre_values, q.pre_values)
        assert np.array_equal(p.jump_indices, q.jump_indices)
        assert np.array_equal(p.jump_sizes, q.jump_sizes)

    def test_a_drawn_size_of_0_is_no_jump(self, tmp_path):
        # two of the five jump times draw the atom at 0: they stay grid points, and the
        # path records the three jumps that from_csv reads back
        p = simulate(JumpDiffusion(1.0, 0.0, 5.0, TwoPointLaw(0.5, 0.0, 1.0)), 64, 1.0, seed=3)
        assert p.n_points == 65 + 5
        assert p.jump_indices.tolist() == [23, 29, 47] and np.all(p.jump_sizes == 1.0)
        f = tmp_path / "path.csv"
        p.to_csv(f)
        q = SamplePath.from_csv(f)
        for name in ("times", "values", "pre_values", "jump_indices", "jump_sizes"):
            assert np.array_equal(getattr(q, name), getattr(p, name)), name
        assert np.array_equal(dyadic_grid(p, 3).indices, dyadic_grid(q, 3).indices)

    @pytest.mark.parametrize("seed", range(40))
    def test_jump_paths_read_back_bit_exact(self, tmp_path, seed):
        # from_csv compares value with pre_jump_value + jump_size exactly, so every
        # simulated jump path has to satisfy that sum to the last bit
        p = simulate(JD, 512, 1.0, seed=seed)
        f = tmp_path / "path.csv"
        p.to_csv(f)
        q = SamplePath.from_csv(f)
        for name in ("times", "values", "pre_values", "jump_indices", "jump_sizes"):
            assert np.array_equal(getattr(q, name), getattr(p, name)), name

    def test_header_validation(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(ValueError):
            SamplePath.from_csv(f)

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV file"),
        ("time,value,pre_jump_value,jump_size\n", "no rows"),
        ("time,value,pre_jump_value,jump_size\n0.0,0.0,0.0,0.0\n1.0,0.5,0.5\n",
         "line 3: expected 4 fields, got 3"),
        ("time,value,pre_jump_value,jump_size\n0.0,0.0,0.0,0.0\n1.0,0.5,0.25,0.0\n",
         "line 3: value 0.5 is not pre_jump_value"),
        ("time,value,pre_jump_value,jump_size\n0.0,0.0,0.0,0.0\n1.0,0.5,0.25,0.5\n",
         "line 3: value 0.5 is not pre_jump_value"),
    ], ids=["empty", "header_only", "short_row", "left_limit_off_a_jump", "jump_mismatch"])
    def test_malformed_files_raise_value_error(self, tmp_path, text, message):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            SamplePath.from_csv(f)

    @pytest.mark.parametrize("time", ["nan", "inf"])
    @pytest.mark.parametrize("row", [1, 2, 3], ids=["first", "middle", "last"])
    def test_times_that_are_not_finite_are_rejected(self, tmp_path, time, row):
        # a NaN time once slipped past the increasing-times test, and dyadic_grid built a
        # grid on it; a last time of inf gave the path an infinite horizon
        lines = ["time,value,pre_jump_value,jump_size", "0.0,0.0,0.0,0.0", "0.5,0.25,0.25,0.0",
                 "1.0,0.5,0.5,0.0"]
        lines[row] = ",".join([time, *lines[row].split(",")[1:]])
        f = tmp_path / "path.csv"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
            SamplePath.from_csv(f)

    def test_left_limit_moved_off_the_jumps_is_rejected(self, tmp_path):
        # loaded, this path has no jump, and ito_decompose(square) on it reports an
        # identity gap of 0.19 while its residual stays below 1e-16
        f = tmp_path / "path.csv"
        simulate(BrownianMotion(), 64, 1.0, seed=3).to_csv(f)
        lines = f.read_text().splitlines()
        t, v, pre, size = lines[20].split(",")
        lines[20] = ",".join([t, v, repr(float(pre) + 0.5), size])
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 21: value"):
            SamplePath.from_csv(f)
