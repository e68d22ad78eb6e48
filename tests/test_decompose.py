"""Tests for the decomposition verifier and its oracles."""

import io
import json

import numpy as np
import pytest

from pathcalc import (
    BracketModel,
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    ResolutionExhaustedError,
    SamplePath,
    ScalarFn,
    TwoPointLaw,
    UniformLaw,
    dyadic_grid,
    hitting_grid,
    ito_decompose,
    make_scalar_fn,
    occupation_local_time,
    simulate,
    stochastic_integral,
    tanaka_decompose,
    verify_report,
)

SQUARE = make_scalar_fn("square")
ABS = make_scalar_fn("abs")
XABS = make_scalar_fn("x_abs_x_half")
COS = make_scalar_fn("cos")
JD = JumpDiffusion(sigma=1.0, drift=0.1, rate=3.0, law=UniformLaw(-1.0, 1.0))
FV = FiniteVariationPath((0.0, 0.4, 1.0), (0.0, 0.8, 0.3))


class TestBracketModel:
    def test_closed_forms(self):
        assert BracketModel.from_model(BrownianMotion(sigma=2.0)).continuous_at(1.0) == 4.0
        b = BracketModel.from_model(JD)
        assert b.continuous_at(1.0) == 1.0
        assert b.total_at(1.0) == pytest.approx(1.0 + 3.0 * (1 / 3))
        assert BracketModel.from_model(FV).total_at(5.0) == 0.0

    def test_total_splits_additively(self):
        b = BracketModel.from_model(JD)
        t = np.linspace(0, 2, 9)
        jump_part = b.total_at(t) - b.continuous_at(t)
        assert np.allclose(jump_part, 3.0 * (1 / 3) * t)
        assert np.all(np.diff(b.continuous_at(t)) >= 0)
        assert np.all(b.continuous_at(t) <= b.total_at(t) + 1e-15)


class TestStochasticIntegral:
    def test_constant_integrand_gives_increment(self):
        p = simulate(JD, 2048, 1.0, seed=9)
        one = ScalarFn("one", lambda x: np.ones_like(np.asarray(x, dtype=float)))
        g = dyadic_grid(p, 11)
        si = stochastic_integral(one, g)
        assert np.max(np.abs(si - (p.values[g.indices] - p.values[0]))) < 1e-12

    def test_two_x_identity_per_cell(self):
        # per cell: b^2 - a^2 - 2a(b - a) = (b - a)^2, split at jumps
        p = simulate(JD, 2048, 1.0, seed=10)
        g = dyadic_grid(p, 11)
        g2x = ScalarFn("2x", lambda x: 2.0 * np.asarray(x, dtype=float))
        si = stochastic_integral(g2x, g)
        idx = g.indices
        x = p.values[idx]
        m = p.pre_values[idx]
        cont_sq = (m[1:] - x[:-1]) ** 2
        jump_sq = (x[1:] - m[1:]) ** 2
        split_qv = np.concatenate(([0.0], np.cumsum(cont_sq + jump_sq)))
        lhs = x**2 - x[0] ** 2
        assert np.max(np.abs(lhs - si - split_qv)) < 1e-12

    def test_sign_integral_isometry(self):
        sign = make_scalar_fn("sign")
        vals = []
        for seed in range(300):
            p = simulate(BrownianMotion(), 2**12, 1.0, seed=8000 + seed)
            vals.append(stochastic_integral(sign, dyadic_grid(p, 12))[-1] ** 2)
        assert 0.9 <= float(np.mean(vals)) <= 1.1


class TestItoDecompose:
    @pytest.mark.parametrize("model", [BrownianMotion(), JD, FV], ids=["bm", "jd", "fv"])
    def test_square_is_exact_per_cell(self, model):
        p = simulate(model, 4096, 1.0, seed=5)
        rep = ito_decompose(SQUARE, dyadic_grid(p, 12))
        assert np.max(np.abs(rep.residual)) <= 1e-10
        assert np.max(rep.identity_gap) <= 1e-10

    def test_identity_closes_per_time(self):
        p = simulate(JD, 2048, 1.0, seed=6)
        rep = ito_decompose(XABS, dyadic_grid(p, 11))
        recon = (rep.stochastic_integral + rep.compensator_term
                 + rep.jump_term + rep.residual)
        assert np.max(np.abs(rep.lhs - recon)) <= 1e-10

    def test_kinked_primitive_against_time_quadrature_oracle(self):
        # the curvature column with the closed-form bracket is the direct
        # time quadrature of sign(X)/2; the defect shrinks with the mesh
        stats = []
        for seed in range(100):
            p = simulate(BrownianMotion(), 2**12, 1.0, seed=8500 + seed)
            rep = ito_decompose(XABS, dyadic_grid(p, 12))
            sign_rc = np.where(p.values[:-1] >= 0.0, 1.0, -1.0)
            sign_quad = 0.5 * np.concatenate(
                ([0.0], np.cumsum(sign_rc * np.diff(p.times))))
            assert np.max(np.abs(rep.compensator_closed - sign_quad)) < 1e-10
            stats.append(abs(rep.lhs[-1] - rep.stochastic_integral[-1] - sign_quad[-1]))
        assert float(np.mean(stats)) < 0.05

    def test_cos_on_jump_diffusion_matches_direct_implementation(self):
        p = simulate(JD, 2048, 1.0, seed=17)
        grid = dyadic_grid(p, 11)
        rep = ito_decompose(COS, grid)
        # independent scalar-loop implementation of the same decomposition
        idx = grid.indices
        stoch = comp = jump = 0.0
        for a_i, b_i in zip(idx[:-1], idx[1:]):
            a = p.values[a_i]
            mid = p.pre_values[b_i]
            b = p.values[b_i]
            stoch += -np.sin(a) * (mid - a)
            comp += -0.5 * np.cos(a) * (mid - a) ** 2
            if b != mid:
                stoch += -np.sin(mid) * (b - mid)
                jump += np.cos(b) - np.cos(mid) + np.sin(mid) * (b - mid)
        assert rep.stochastic_integral[-1] == pytest.approx(stoch, abs=1e-6)
        assert rep.compensator_term[-1] == pytest.approx(comp, abs=1e-6)
        assert rep.jump_term[-1] == pytest.approx(jump, abs=1e-6)
        lhs = float(np.cos(p.values[-1]) - np.cos(p.values[0]))
        assert rep.lhs[-1] == pytest.approx(lhs, abs=1e-12)
        assert rep.residual[-1] == pytest.approx(lhs - stoch - comp - jump, abs=1e-6)

    def test_jump_term_matches_recorded_jumps_bit_exactly(self):
        p = simulate(JD, 1024, 1.0, seed=18)
        rep = ito_decompose(XABS, dyadic_grid(p, 10))
        acc = 0.0
        for i, size in zip(p.jump_indices, p.jump_sizes):
            pre, post = p.pre_values[i], p.values[i]
            acc += float(XABS(post)) - float(XABS(pre)) - float(np.abs(pre)) * size
        assert rep.jump_term[-1] == pytest.approx(acc, abs=1e-15)

    def test_positivity_transfer_for_convex_f(self):
        found = 0
        for seed in range(30):
            p = simulate(JD, 512, 1.0, seed=400 + seed)
            if not len(p.jump_indices):
                continue
            found += len(p.jump_indices)
            rep = ito_decompose(ABS, dyadic_grid(p, 9))
            cells = np.diff(rep.jump_term)
            assert np.all(cells >= -1e-12)
        assert found > 10

    def test_missing_derivative_limit_marks_not_applicable(self):
        def xsin(x):
            x = np.asarray(x, dtype=float)
            safe = np.where(x != 0, x, 1.0)
            return np.where(x != 0, x * np.sin(1.0 / safe), 0.0)

        p = simulate(BrownianMotion(), 512, 1.0, seed=19)
        assert p.values.min() < 0 < p.values.max()
        rep = ito_decompose(ScalarFn("xsin", xsin), dyadic_grid(p, 9))
        assert not rep.applicable
        verdict = verify_report(rep, "ito")
        assert not verdict.passed

    def test_zero_variance_path_gives_all_zero_report(self):
        p = simulate(BrownianMotion(sigma=0.0, drift=0.0), 64, 1.0, seed=0)
        rep = ito_decompose(SQUARE, dyadic_grid(p, 4))
        for col in (rep.lhs, rep.stochastic_integral, rep.compensator_term,
                    rep.jump_term, rep.residual):
            assert np.all(col == 0.0)

    def test_localization_matches_truncated_path(self):
        p = simulate(BrownianMotion(), 1024, 1.0, seed=20)
        grid = dyadic_grid(p, 8)
        rep = ito_decompose(XABS, grid)
        cut = len(grid) // 2
        stop_idx = int(grid.indices[cut])
        truncated = SamplePath(
            times=p.times[: stop_idx + 1].copy(), values=p.values[: stop_idx + 1].copy(),
            pre_values=p.pre_values[: stop_idx + 1].copy(),
            jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]),
            horizon=float(p.times[stop_idx]), model=p.model, seed=p.seed,
        )
        tgrid = dyadic_grid(truncated, 8)
        # truncated dyadic grid at the same level halves its mesh; compare on
        # the matching prefix of shared grid indices instead
        shared = grid.indices[: cut + 1]
        rep2 = ito_decompose(XABS, type(grid)(path=truncated, indices=shared, scheme="dyadic",
                                              param=8.0))
        assert np.array_equal(rep.residual[: cut + 1], rep2.residual)
        assert np.array_equal(rep.stochastic_integral[: cut + 1], rep2.stochastic_integral)
        assert tgrid.indices[-1] == stop_idx


class TestTanakaDecompose:
    def test_no_crossing_path_has_zero_residual(self):
        p = simulate(BrownianMotion(x0=5.0), 4096, 1.0, seed=2)
        assert p.values.min() > 1.0
        rep = tanaka_decompose(ABS, dyadic_grid(p, 12))
        assert np.max(np.abs(rep.residual)) == 0.0

    def test_crossing_bm_accumulates_local_time(self):
        p = simulate(BrownianMotion(), 2**14, 1.0, seed=3)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 14))
        verdict = verify_report(rep, "tanaka", tol=1e-6)
        assert verdict.passed
        assert rep.residual[-1] > 0.1
        assert np.all(np.diff(rep.residual) >= 0)
        oracle = occupation_local_time(p, 0.0, 0.02)
        assert rep.residual[-1] == pytest.approx(oracle, rel=0.5)

    def test_same_report_fails_as_ito(self):
        p = simulate(BrownianMotion(), 2**12, 1.0, seed=3)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 12))
        assert not verify_report(rep, "ito", tol=1e-6).passed

    def test_kink_localization(self):
        kinked = make_scalar_fn("piecewise_linear", breakpoints=[0.3], slopes=[0.0, 1.0])
        p = simulate(BrownianMotion(), 2**14, 1.0, seed=4)
        rep = tanaka_decompose(kinked, dyadic_grid(p, 14))
        incr = np.diff(rep.residual)
        left_values = p.values[dyadic_grid(p, 14).indices[:-1]]
        away = np.abs(left_values - 0.3) > 0.05
        assert float(np.sum(incr[away])) < 1e-8
        assert float(np.sum(incr)) > 0.0 or p.values.max() < 0.3

    def test_residual_invariant_across_grid_families(self):
        diffs = []
        for seed in range(20):
            p = simulate(BrownianMotion(), 2**16, 1.0, seed=600 + seed)
            r1 = tanaka_decompose(ABS, dyadic_grid(p, 14))
            r2 = tanaka_decompose(ABS, hitting_grid(p, 2**-7))
            diffs.append(abs(r1.residual[-1] - r2.residual[-1]))
        assert float(np.mean(diffs)) < 0.1

    def test_second_ratio_lower_bound_recorded(self):
        p = simulate(BrownianMotion(), 1024, 1.0, seed=5)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 10))
        assert rep.notes["second_ratio_lower_bound"] >= -1e-9


class TestOccupationLocalTime:
    def test_deterministic_ramp(self):
        p = simulate(BrownianMotion(sigma=0.0, drift=1.0), 64, 1.0, seed=0)
        assert occupation_local_time(p, 0.5, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_band_never_entered(self):
        p = simulate(BrownianMotion(sigma=0.0, drift=1.0), 64, 1.0, seed=0)
        assert occupation_local_time(p, 5.0, 0.1) == 0.0

    def test_resolution_guard(self):
        p = simulate(BrownianMotion(), 256, 1.0, seed=1)
        with pytest.raises(ResolutionExhaustedError):
            occupation_local_time(p, 0.0, 1e-8)

    def test_bm_moment_smoke(self):
        vals = [occupation_local_time(simulate(BrownianMotion(), 2**14, 1.0, seed=900 + s), 0.0, 0.01)
                for s in range(100)]
        assert float(np.mean(vals)) == pytest.approx(np.sqrt(2 / np.pi), abs=0.2)


class TestVerifyReport:
    def test_square_passes_tight(self):
        p = simulate(BrownianMotion(), 4096, 1.0, seed=30)
        bracket = BracketModel.from_model(p.model)
        coarser = [ito_decompose(SQUARE, dyadic_grid(p, lv), bracket) for lv in (10, 11)]
        rep = ito_decompose(SQUARE, dyadic_grid(p, 12), bracket)
        verdict = verify_report(rep, "ito", tol=1e-8, coarser=coarser)
        assert verdict.passed
        assert verdict.checks["identity_gap_nonincreasing"]["passed"]

    def test_fv_path_with_smooth_f_is_pure_stieltjes(self):
        p = simulate(FV, 2**14, 1.0, seed=0)
        rep = ito_decompose(COS, dyadic_grid(p, 14))
        # no martingale part: both curvature and residual vanish with the mesh
        assert np.max(np.abs(rep.compensator_term)) < 1e-3
        assert np.max(np.abs(rep.residual)) < 1e-3
        stieltjes = np.concatenate(
            ([0.0], np.cumsum(-np.sin(p.values[:-1]) * np.diff(p.values))))
        grid_idx = dyadic_grid(p, 14).indices
        assert np.max(np.abs(rep.stochastic_integral - stieltjes[grid_idx])) < 1e-6

    def test_no_applicable_coarser_report_omits_gap_trend(self):
        p = simulate(BrownianMotion(), 256, 1.0, seed=31)
        rep = ito_decompose(SQUARE, dyadic_grid(p, 6))
        inapplicable = ito_decompose(make_scalar_fn("sign"), dyadic_grid(p, 5))
        assert not inapplicable.applicable
        verdict = verify_report(rep, "ito", coarser=[inapplicable])
        assert verdict.checks == verify_report(rep, "ito").checks
        assert "identity_gap_nonincreasing" not in verdict.checks

    def test_mode_validation(self):
        p = simulate(BrownianMotion(), 64, 1.0, seed=0)
        rep = ito_decompose(SQUARE, dyadic_grid(p, 4))
        with pytest.raises(ValueError):
            verify_report(rep, "other")


class TestReportSerialization:
    def test_summary_and_csv(self):
        p = simulate(JD, 512, 1.0, seed=40)
        rep = ito_decompose(SQUARE, dyadic_grid(p, 9))
        d = rep.summary_dict()
        assert d["applicable"] and d["mode"] == "ito"
        json.dumps(d)
        buf = io.StringIO()
        rep.series_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,lhs,stoch_integral,compensator,jump_term,residual"
        assert len(lines) == len(rep.times) + 1


class TestReportStatistics:
    @pytest.mark.parametrize("model", [BrownianMotion(), JD])
    def test_summary_and_verdict_read_the_same_numbers(self, model):
        p = simulate(model, 512, 1.0, seed=6)
        coarse = tanaka_decompose(ABS, dyadic_grid(p, 6))
        rep = tanaka_decompose(ABS, dyadic_grid(p, 7))
        summary = rep.summary_dict()
        checks = verify_report(rep, mode="tanaka", coarser=[coarse]).checks
        assert checks["identity_gap_max"]["value"] == summary["max_identity_gap"]
        assert checks["residual_increments_min"]["value"] == summary["min_residual_increment"]
        assert checks["max_jump_time_increment"]["value"] == summary["max_jump_cell_residual"]
        assert checks["identity_gap_nonincreasing"]["bound"] == (
            coarse.summary_dict()["max_identity_gap"] + 1e-10)
        ito = verify_report(rep, mode="ito").checks
        assert ito["max_abs_residual"]["value"] == summary["max_abs_residual"]

    def test_empty_conventions(self):
        p = simulate(BrownianMotion(), 4, 1.0, seed=1)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 0))
        assert rep.summary_dict()["max_jump_cell_residual"] == 0.0
        assert verify_report(rep, mode="tanaka").checks["max_jump_time_increment"]["value"] == 0.0
