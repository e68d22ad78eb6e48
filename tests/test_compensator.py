"""Tests for closed-form compensators and their Monte Carlo verification."""

import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from pathcalc import (
    BrownianMotion,
    CompoundPoissonIncreasing,
    ConstantY,
    JumpDiffusion,
    PathQV,
    PoissonCounting,
    StateY,
    StepY,
    TwoPointLaw,
    UniformLaw,
    UnsupportedModelError,
    martingale_check,
    verify_compensator,
)
from pathcalc import compensator
from pathcalc.catalog import sign_rc
from pathcalc.compensator import (
    _BLOCK_ROWS,
    _jump_events,
    _path_qv_terms,
    _se_bound,
    _verdict,
    catalog_models,
    catalog_test_processes,
    verify_process,
)
from pathcalc.paths import seeded_rng

CPI = CompoundPoissonIncreasing(rate=2.0, law=UniformLaw(0.0, 1.0))


class TestClosedForms:
    # A^p_t = compensator_slope() * t
    def test_poisson_counting(self):
        assert PoissonCounting(3.0).compensator_slope() == 3.0
        assert PoissonCounting(3.0).compensator_slope() * 0.5 == 1.5

    def test_compound_poisson_increasing(self):
        assert CPI.compensator_slope() == pytest.approx(1.0)

    def test_path_qv_brackets(self):
        assert PathQV(BrownianMotion(sigma=1.0)).compensator_slope() == 1.0
        jd = PathQV(JumpDiffusion(sigma=0.5, drift=0.0, rate=2.0, law=UniformLaw(0.0, 1.0)))
        assert jd.compensator_slope() == pytest.approx(0.25 + 2.0 / 3.0)

    @pytest.mark.parametrize("rate_factor", [1.0, 1.5])
    def test_slope_is_one_formula(self, rate_factor):
        # c + rate E[J^p], with c = 0 for the pure-jump processes and E[J^0] = 1
        for model in catalog_models():
            moment = (1.0 if model.p == 0 else 0.0 if model.law is None
                      else model.law.mean if model.p == 1 else model.law.second_moment)
            expected = rate_factor * (model.c + model.rate * moment)
            assert model.compensator_slope(rate_factor) == pytest.approx(expected, rel=1e-15)

    def test_unsupported_model(self):
        with pytest.raises(UnsupportedModelError):
            verify_compensator(object(), ConstantY(1.0), n_paths=10)
        with pytest.raises(UnsupportedModelError):
            martingale_check(object(), n_paths=10)

    def test_nonnegative_nondecreasing_zero_start(self):
        for model in catalog_models():
            vals = model.compensator_slope() * np.linspace(0, 2, 9)
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= 0)
            assert np.all(vals >= 0)


class TestModelValidation:
    def test_increasing_needs_nonnegative_law(self):
        with pytest.raises(ValueError):
            CompoundPoissonIncreasing(rate=1.0, law=UniformLaw(-1.0, 1.0))
        with pytest.raises(ValueError):
            CompoundPoissonIncreasing(rate=1.0, law=TwoPointLaw(0.5, -1.0, 1.0))

    def test_positive_rate_required(self):
        with pytest.raises(ValueError):
            PoissonCounting(0.0)

    @pytest.mark.parametrize("name", ["unbounded_thing", "tanh"])
    def test_state_function_catalog(self, name):
        # the catalog builds StateY of cos and sign alone
        with pytest.raises(ValueError):
            StateY(name)


class TestVerifyCompensator:
    def test_poisson_constant(self):
        v = verify_compensator(PoissonCounting(3.0), ConstantY(1.0), n_paths=10_000, seed=42)
        assert v.passed
        assert v.rhs_mean == 3.0
        assert v.lhs_mean == pytest.approx(3.0, abs=0.1)

    def test_cpi_step(self):
        v = verify_compensator(CPI, StepY(0.5), n_paths=10_000, seed=43)
        assert v.passed
        assert v.rhs_mean == pytest.approx(0.5)
        assert v.lhs_mean == pytest.approx(0.5, abs=0.05)

    def test_zero_process_is_exact(self):
        v = verify_compensator(CPI, ConstantY(0.0), n_paths=100, seed=44)
        assert v.passed
        assert v.lhs_mean == 0.0 and v.rhs_mean == 0.0

    def test_state_process_on_counting(self):
        v = verify_compensator(PoissonCounting(3.0), StateY("cos"), n_paths=10_000, seed=45)
        assert v.passed

    def test_state_process_on_path_qv(self):
        jd = PathQV(JumpDiffusion(sigma=0.8, drift=0.1, rate=1.0, law=UniformLaw(-1.0, 1.0)))
        v = verify_compensator(jd, StateY("sign"), n_paths=5000, seed=46)
        assert v.passed

    def test_pure_jump_constant_closed_form_side(self):
        v = verify_compensator(PoissonCounting(3.0), ConstantY(2.5), n_paths=1000, T=0.7,
                               seed=52)
        assert v.rhs_mean == pytest.approx(5.25, rel=1e-15)

    def test_full_catalog_passes(self):
        seed = 9000
        for model in catalog_models():
            for y in catalog_test_processes(1.0):
                v = verify_compensator(model, y, n_paths=4000, T=1.0, seed=seed)
                assert v.passed, f"{model.label} x {y.label}: diff={v.diff}, se={v.se_combined}"
                seed += 1

    def test_wrong_intensity_fails(self):
        v = verify_compensator(PoissonCounting(3.0), ConstantY(1.0), n_paths=10_000,
                               seed=47, rate_factor=1.5)
        assert not v.passed

    def test_verdict_serializes(self):
        v = verify_compensator(CPI, ConstantY(1.0), n_paths=500, seed=48)
        d = v.to_json_dict()
        # the verdict and the path count are not persisted: they follow from diff, se_combined
        # and the run's config
        assert set(d) == {"model", "Y", "lhs_mean", "rhs_mean", "diff", "se_combined"}


def _within_3se(increment) -> bool:
    return abs(increment["mean_increment"]) <= _se_bound(increment["se"])


class TestMartingaleCheck:
    def test_poisson_counting_passes(self):
        r = martingale_check(PoissonCounting(1.0), n_paths=10_000, T=1.0, seed=48)
        assert [(inc["s"], inc["t"]) for inc in r["increments"]] == [(0.0, 0.5), (0.5, 1.0)]
        assert all(map(_within_3se, r["increments"]))

    def test_path_qv_with_jumps(self):
        jd = PathQV(JumpDiffusion(sigma=1.0, drift=0.0, rate=2.0, law=UniformLaw(0.0, 1.0)))
        r = martingale_check(jd, n_paths=10_000, seed=51)
        assert all(map(_within_3se, r["increments"]))

    def test_increments_halve_the_horizon(self):
        r = martingale_check(PoissonCounting(1.0), n_paths=10, T=0.3, seed=2)
        assert set(r) == {"model", "increments"}
        assert [(inc["s"], inc["t"]) for inc in r["increments"]] == [(0.0, 0.15), (0.15, 0.3)]
        assert all(set(inc) == {"s", "t", "mean_increment", "se"} for inc in r["increments"])


class TestArguments:
    # each library function checks its own arguments: a CLI config never reaches these
    _MODELS = [PoissonCounting(1.0), PathQV(BrownianMotion(sigma=1.0))]

    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label)
    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf"), -float("inf"),
                                   True, "1.0", None])
    def test_horizon_must_be_finite_and_positive(self, model, T):
        with pytest.raises(ValueError, match="finite T > 0"):
            martingale_check(model, n_paths=10, T=T)
        for y in catalog_test_processes():
            with pytest.raises(ValueError, match="finite T > 0"):
                verify_compensator(model, y, n_paths=10, T=T)

    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label)
    @pytest.mark.parametrize("n_paths", [0, -3, 2.5, float("nan"), True])
    def test_at_least_one_path(self, model, n_paths):
        with pytest.raises(ValueError, match="n_paths >= 1"):
            martingale_check(model, n_paths=n_paths)
        for y in catalog_test_processes():
            with pytest.raises(ValueError, match="n_paths >= 1"):
                verify_compensator(model, y, n_paths=n_paths)

    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label)
    @pytest.mark.parametrize("seed", [1.7, 2.9, True, -1, 2**64])
    def test_the_seed_is_an_integer_in_range(self, model, seed):
        # not truncated to seed 1 or 2: a path_qv(bm) pair with a state-free Y draws nothing
        with pytest.raises(ValueError, match="integer seed"):
            martingale_check(model, n_paths=10, seed=seed)
        for y in catalog_test_processes():
            with pytest.raises(ValueError, match="integer seed"):
                verify_compensator(model, y, n_paths=10, seed=seed)


class TestStandardErrorRule:
    @pytest.mark.parametrize("rate_factor", [1.0, 1.5])
    def test_verdict_passes_exactly_within_its_bound(self, rate_factor):
        for model in catalog_models():
            for y in catalog_test_processes():
                v = verify_compensator(model, y, n_paths=300, seed=4, rate_factor=rate_factor)
                assert v.passed == (abs(v.diff) <= 3.0 * v.se_combined + 1e-12)
                assert "bound" not in v.to_json_dict()

    def test_single_draw_has_zero_standard_error(self):
        v = verify_compensator(CPI, ConstantY(0.0), n_paths=1)
        assert v.se_combined == 0.0 and v.passed
        res = martingale_check(PoissonCounting(2.0), n_paths=1, seed=1)
        assert all(inc["se"] == 0.0 for inc in res["increments"])

    def test_sign_state_reads_the_catalog_sign_bitwise(self):
        states = np.array([[-2.5, -0.0, 0.0], [1e-300, -1e-300, 3.0]])
        got = StateY("sign").at(states, np.zeros(2))
        want = np.asarray(sign_rc(states), dtype=float)
        assert got.shape == states.shape
        assert got[0, 1] == got[0, 2] == 1.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class _NormalDrawn(Exception):
    pass


class _JumpsOnlyRng:
    """A stand-in for ``seeded_rng(seed)``: its jumped stream is the seed's, and a normal
    draw raises."""

    def __init__(self, seed):
        self.bit_generator = seeded_rng(seed).bit_generator

    def standard_normal(self, *args, **kwargs):
        raise _NormalDrawn


@dataclass(frozen=True)
class _PathReadingConstantY(ConstantY):
    """ConstantY that declares no closed-form time integral, so its PathQV pair draws."""

    def time_integral(self, T):
        return None


def _path_qv_models():
    return [m for m in catalog_models() if isinstance(m, PathQV)]


def _unblocked_path_qv(model, y, n_paths, T=1.0, seed=0, rate_factor=1.0):
    """The PathQV branch of verify_compensator with all paths drawn at once, the jumps
    from the seed's jumped stream."""
    rng = seeded_rng(seed)
    n_steps = 512
    sigma, drift = model.model.sigma, model.model.drift
    ts = np.linspace(0.0, T, n_steps + 1)
    dt = T / n_steps
    x = np.zeros((n_paths, n_steps + 1))
    if sigma > 0 or drift != 0.0:
        incr = drift * dt + sigma * np.sqrt(dt) * rng.normal(size=(n_paths, n_steps))
        x[:, 1:] = np.cumsum(incr, axis=1)
    jump_lhs = np.zeros(n_paths)
    if model.rate > 0:
        jump_rng = np.random.Generator(seeded_rng(seed).bit_generator.jumped())
        counts, path_id, times, jumps = _jump_events(jump_rng, model, T, n_paths)
        cell = np.minimum((times / dt).astype(np.int64), n_steps - 1)
        state_before = x[path_id, cell]
        np.add.at(jump_lhs, path_id, y.at(state_before, times) * jumps)
    quad = np.sum(y.at(x[:, :-1], ts[:-1]), axis=1) * dt
    lhs = model.c * quad + jump_lhs
    rhs = model.compensator_slope(rate_factor) * quad
    return _verdict(model, y, lhs, rhs)


class TestPathQVRowBlocks:
    # at T != 1 both dt and step's tau move; step(tau=T/2) sums to 257/512 T on the grid,
    # not to its time_integral T/2
    @pytest.mark.parametrize("T", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("n_paths", [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                         2 * _BLOCK_ROWS + 3])
    @pytest.mark.parametrize("model", _path_qv_models(), ids=lambda m: m.label)
    def test_blocks_give_the_verdict_of_one_draw(self, model, n_paths, T):
        for y in catalog_test_processes(T):
            for rate_factor in (1.0, 1.37):
                blocked = verify_compensator(model, y, n_paths=n_paths, T=T, seed=n_paths + 17,
                                             rate_factor=rate_factor)
                whole = _unblocked_path_qv(model, y, n_paths, T=T, seed=n_paths + 17,
                                           rate_factor=rate_factor)
                assert blocked.to_json_dict() == whole.to_json_dict(), (y.label, rate_factor)

    @pytest.mark.parametrize("n_paths", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
    @pytest.mark.parametrize("model", _path_qv_models(), ids=lambda m: m.label)
    def test_state_free_pairs_draw_no_normals(self, model, n_paths, monkeypatch):
        # const and step read no state: they match a pair that draws every normal, bit for bit,
        # with no normal drawn
        state_free = (ConstantY(1.0), StepY(tau=0.5))
        wholes = [_unblocked_path_qv(model, y, n_paths, seed=n_paths + 29, rate_factor=1.37)
                  for y in state_free]
        monkeypatch.setattr(compensator, "seeded_rng", _JumpsOnlyRng)
        for y, whole in zip(state_free, wholes):
            blocked = verify_compensator(model, y, n_paths=n_paths, seed=n_paths + 29,
                                         rate_factor=1.37)
            assert blocked.to_json_dict() == whole.to_json_dict(), y.label
        with pytest.raises(_NormalDrawn):
            verify_compensator(model, StateY("cos"), n_paths=n_paths, seed=n_paths + 29)

    def test_a_pairs_peak_memory_does_not_grow_with_its_paths(self):
        # a pair holds one block of paths, never the whole n_paths x 513 state matrix
        model = [m for m in _path_qv_models() if m.rate > 0][0]
        peaks = {}
        for n_paths in (2 * _BLOCK_ROWS, 8 * _BLOCK_ROWS):
            tracemalloc.start()
            try:
                verify_compensator(model, StateY("cos"), n_paths=n_paths, seed=5)
                peaks[n_paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[8 * _BLOCK_ROWS] - peaks[2 * _BLOCK_ROWS]) <= 2 * 2**20, peaks

    def test_a_pair_at_ten_thousand_paths_peaks_under_4_mib(self):
        # one block's normals, states and Y at 0.5 MiB each, plus the jump events and a few
        # arrays of n_paths: about 3 MB traced (14 MB with blocks of 1000 rows)
        model = [m for m in _path_qv_models() if m.rate > 0][0]
        tracemalloc.start()
        try:
            verify_compensator(model, StateY("cos"), n_paths=10_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_the_jumps_depend_on_the_seed_alone(self, monkeypatch):
        # a pair that draws 512 normals per path gets the jumps of one that draws none, and
        # both get the events that the seed's jumped stream gives
        n_paths, seed, law = 2 * _BLOCK_ROWS + 3, 61, UniformLaw(-1.0, 1.0)
        drawing = PathQV(JumpDiffusion(sigma=0.8, drift=0.1, rate=1.0, law=law))
        still = PathQV(JumpDiffusion(sigma=0.0, drift=0.0, rate=1.0, law=law))
        sums = [_path_qv_terms(drawing, [_PathReadingConstantY(1.0)], n_paths, 1.0, seed)[0][1],
                _path_qv_terms(still, [ConstantY(1.0)], n_paths, 1.0, seed)[0][1]]
        jump_rng = np.random.Generator(seeded_rng(seed).bit_generator.jumped())
        _, path_id, _, jumps = _jump_events(jump_rng, drawing, 1.0, n_paths)
        rebuilt = np.zeros(n_paths)
        np.add.at(rebuilt, path_id, jumps)
        assert np.count_nonzero(rebuilt) > _BLOCK_ROWS
        for jump_sum in sums:
            assert np.array_equal(jump_sum.view(np.int64), rebuilt.view(np.int64))
        # the first pair did draw its normals
        monkeypatch.setattr(compensator, "seeded_rng", _JumpsOnlyRng)
        with pytest.raises(_NormalDrawn):
            _path_qv_terms(drawing, [_PathReadingConstantY(1.0)], n_paths, 1.0, seed)


def _bits(verdict) -> str:
    """A verdict's persisted numbers, each by its repr: equal strings are equal bits."""
    return json.dumps(verdict.to_json_dict())


class TestProcessDraw:
    # a process draws its paths once, from its seed, and every Y reads them
    @pytest.mark.parametrize("T", [1.0, 2.5])
    @pytest.mark.parametrize("n_paths", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                         2 * _BLOCK_ROWS + 3])
    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: m.label)
    def test_each_y_gets_the_verdict_of_its_own_call(self, model, n_paths, T):
        ys = catalog_test_processes(T)
        seed = n_paths + 71
        for rate_factor in (1.0, 1.37):
            shared = verify_process(model, ys, n_paths=n_paths, T=T, seed=seed,
                                    rate_factor=rate_factor)
            assert [(v.model_label, v.y_label) for v in shared] == [(model.label, y.label)
                                                                   for y in ys]
            for y, v in zip(ys, shared):
                alone = verify_compensator(model, y, n_paths=n_paths, T=T, seed=seed,
                                           rate_factor=rate_factor)
                assert _bits(v) == _bits(alone) and v.passed == alone.passed, y.label

    @pytest.mark.parametrize("model", _path_qv_models(), ids=lambda m: m.label)
    def test_normals_are_drawn_only_if_some_y_reads_the_state(self, model, monkeypatch):
        n_paths, seed = _BLOCK_ROWS + 1, 83
        state_free = [ConstantY(1.0), StepY(tau=0.5)]
        wholes = verify_process(model, state_free + [StateY("cos")], n_paths=n_paths, seed=seed)
        monkeypatch.setattr(compensator, "seeded_rng", _JumpsOnlyRng)
        blocked = verify_process(model, state_free, n_paths=n_paths, seed=seed)
        assert list(map(_bits, blocked)) == list(map(_bits, wholes[:2]))
        with pytest.raises(_NormalDrawn):
            verify_process(model, state_free + [StateY("sign")], n_paths=n_paths, seed=seed)

    def test_a_process_with_four_y_at_ten_thousand_paths_peaks_under_4_mib(self):
        # one block for all four Y, evaluated one Y at a time, plus two arrays of n_paths
        # per Y: the single pair's budget
        model = [m for m in _path_qv_models() if m.rate > 0][0]
        tracemalloc.start()
        try:
            verify_process(model, catalog_test_processes(), n_paths=10_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
