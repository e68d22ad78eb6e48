"""Tests for seeded path simulation and jump bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    NormalLaw,
    SamplePath,
    TwoPointLaw,
    UniformLaw,
    dyadic_grid,
    realized_qv,
    reattach_jumps,
    simulate,
    split_jumps,
)
from pathcalc.paths import seeded_rng

JD = JumpDiffusion(sigma=1.0, drift=0.2, rate=3.0, law=NormalLaw(0.0, 0.8))
CPJ = CompoundPoissonJumps(rate=6.0, law=UniformLaw(-1.5, 1.5))


class TestJumpLaws:
    def test_moments(self):
        tp = TwoPointLaw(0.5, 1.0, -1.0)
        assert tp.mean == 0.0 and tp.second_moment == 1.0
        u = UniformLaw(0.0, 1.0)
        assert u.mean == 0.5 and u.second_moment == pytest.approx(1 / 3)
        n = NormalLaw(0.3, 0.4)
        assert n.second_moment == pytest.approx(0.3**2 + 0.4**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPointLaw(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            UniformLaw(1.0, 0.0)
        with pytest.raises(ValueError):
            NormalLaw(0.0, -1.0)


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
            simulate(BrownianMotion(), 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            simulate(BrownianMotion(), 8, 0.0, seed=0)
        with pytest.raises(ValueError):
            BrownianMotion(sigma=-1.0)
        with pytest.raises(ValueError):
            JumpDiffusion(sigma=1.0, drift=0.0, rate=-1.0, law=UniformLaw(0, 1))


class TestSplitJumps:
    def test_no_jumps_identity(self):
        p = simulate(BrownianMotion(), 128, 1.0, seed=3)
        cont, removed = split_jumps(p, 1.0)
        assert cont is p and removed == []

    def test_single_big_jump_removed(self):
        p = simulate(CompoundPoissonJumps(rate=1.0, law=TwoPointLaw(1.0, 2.0, 2.0)), 64, 1.0, seed=8)
        assert len(p.jump_indices) >= 1
        cont, removed = split_jumps(p, 1.0)
        assert len(removed) == len(p.jump_indices)
        assert len(cont.jump_indices) == 0
        # with all jumps removed the path is flat at the start level
        assert np.allclose(cont.values, cont.values[0])

    @pytest.mark.parametrize("seed", range(40))
    def test_reattach_is_bit_exact(self, seed):
        p = simulate(JD, 512, 1.0, seed=seed)
        cont, removed = split_jumps(p, 0.1)
        back = reattach_jumps(cont, removed)
        assert np.array_equal(back.values, p.values)
        assert np.array_equal(back.pre_values, p.pre_values)
        assert np.array_equal(back.jump_indices, p.jump_indices)
        assert np.array_equal(back.jump_sizes, p.jump_sizes)

    def test_threshold_validation(self):
        p = simulate(JD, 64, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_jumps(p, 0.0)

    @given(model=st.sampled_from([CPJ, JD]), seed=st.integers(0, 2**32),
           a=st.floats(1e-6, 3.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_split_then_reattach_is_bit_exact_for_any_threshold(self, model, seed, a):
        p = simulate(model, 256, 1.0, seed=seed)
        cont, removed = split_jumps(p, a)
        assert all(abs(size) > a for _, size in removed)
        assert np.all(np.abs(cont.jump_sizes) <= a)
        # the stripped path moves at a point by exactly its remaining jump there
        assert np.allclose(cont.values - cont.pre_values, cont.jump_size_at(), rtol=0, atol=1e-12)
        back = reattach_jumps(cont, removed)
        for name in ("values", "pre_values", "jump_indices", "jump_sizes"):
            assert np.array_equal(getattr(back, name), getattr(p, name)), name


class TestSeededRng:
    def test_same_stream_as_the_integer_key(self):
        rng = np.random.default_rng(5)
        seeds = [0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1,
                 *(int(s) for s in rng.integers(0, 2**63, size=50, dtype=np.uint64) * 2 + 1)]
        for seed in seeds:
            expected = np.random.Generator(np.random.Philox(key=seed)).random(3)
            assert np.array_equal(seeded_rng(seed).random(3), expected), seed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_a_value_error(self, seed):
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
    def test_round_trip_preserves_everything(self, tmp_path):
        p = simulate(JD, 256, 1.0, seed=21)
        f = tmp_path / "path.csv"
        p.to_csv(f)
        q = SamplePath.from_csv(f)
        assert np.array_equal(p.times, q.times)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.pre_values, q.pre_values)
        assert np.array_equal(p.jump_indices, q.jump_indices)
        assert np.array_equal(p.jump_sizes, q.jump_sizes)

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
    ], ids=["empty", "header_only", "short_row"])
    def test_malformed_files_raise_value_error(self, tmp_path, text, message):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            SamplePath.from_csv(f)
