"""Tests for the decomposition verifier and its oracles."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    dyadic_grid,
    hitting_grid,
    ito_decompose,
    make_scalar_fn,
    occupation_local_time,
    simulate,
    tanaka_decompose,
)
from pathcalc.catalog import CATALOG_NAMES
from pathcalc.cli import _write_json
from pathcalc.decompose import _resolve_derivative

SQUARE = make_scalar_fn("square")
ABS = make_scalar_fn("abs")
XABS = make_scalar_fn("x_abs_x_half")
COS = make_scalar_fn("cos")
JD = JumpDiffusion(sigma=1.0, drift=0.1, rate=3.0, law=UniformLaw(-1.0, 1.0))
FV = FiniteVariationPath((0.0, 0.4, 1.0), (0.0, 0.8, 0.3))


class TestBracketCoeffs:
    # <X^c>_t = cont_coeff t and <X>_t = (cont_coeff + jump_coeff) t
    def test_closed_forms(self):
        assert BrownianMotion(sigma=2.0).bracket_coeffs == (4.0, 0.0)
        cont, jump = JD.bracket_coeffs
        assert cont == 1.0
        assert jump == pytest.approx(3.0 * (1 / 3))
        assert FV.bracket_coeffs == (0.0, 0.0)

    def test_coefficients_are_nonnegative(self):
        for model in (BrownianMotion(sigma=0.5, drift=-1.0), JD, CPJ, FV):
            assert all(c >= 0.0 for c in model.bracket_coeffs)
        assert CPJ.bracket_coeffs[0] == 0.0


class TestStochasticIntegral:
    def test_constant_integrand_gives_increment(self):
        p = simulate(JD, 2048, 1.0, seed=9)
        g = dyadic_grid(p, 11)
        si = ito_decompose(make_scalar_fn("identity"), g).stochastic_integral
        assert np.max(np.abs(si - (p.values[g.indices] - p.values[0]))) < 1e-12

    def test_two_x_identity_per_cell(self):
        # per cell: b^2 - a^2 - 2a(b - a) = (b - a)^2, split at jumps
        p = simulate(JD, 2048, 1.0, seed=10)
        g = dyadic_grid(p, 11)
        si = ito_decompose(SQUARE, g).stochastic_integral
        idx = g.indices
        x = p.values[idx]
        m = p.pre_values[idx]
        cont_sq = (m[1:] - x[:-1]) ** 2
        jump_sq = (x[1:] - m[1:]) ** 2
        split_qv = np.concatenate(([0.0], np.cumsum(cont_sq + jump_sq)))
        lhs = x**2 - x[0] ** 2
        assert np.max(np.abs(lhs - si - split_qv)) < 1e-12

    def test_sign_integral_isometry(self):
        # the integrand of |x| is the right-continuous sign
        vals = []
        for seed in range(300):
            p = simulate(BrownianMotion(), 2**12, 1.0, seed=8000 + seed)
            vals.append(ito_decompose(ABS, dyadic_grid(p, 12)).stochastic_integral[-1] ** 2)
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
        # no number to grade: the CLI reads each missing one as inf, which FAILs
        assert not set(rep.summary_dict()) & {"max_abs_residual", "max_identity_gap"}

    def test_undeclared_derivatives_come_from_the_grid_surrogate(self):
        p = simulate(BrownianMotion(), 1024, 1.0, seed=20)
        grid = dyadic_grid(p, 10)
        x2 = ScalarFn("x2", lambda x: np.asarray(x, dtype=float) ** 2)
        rep = ito_decompose(x2, grid)
        assert rep.applicable and rep.g_label == "D+x2~grid"
        declared = ito_decompose(SQUARE, grid)
        assert np.max(np.abs(rep.residual - declared.residual)) <= 1e-12

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
        stats = rep.stats
        assert stats["max_identity_gap"] <= 1e-8 and stats["max_residual_decrease"] <= 1e-6
        assert stats["max_jump_cell_residual"] == 0.0
        assert rep.residual[-1] > 0.1
        assert np.all(np.diff(rep.residual) >= 0)
        oracle = occupation_local_time(p, 0.0, 0.02)
        assert rep.residual[-1] == pytest.approx(oracle, rel=0.5)

    def test_same_report_fails_as_ito(self):
        p = simulate(BrownianMotion(), 2**12, 1.0, seed=3)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 12))
        assert rep.stats["max_abs_residual"] > 1e-6

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


class TestReportNumbers:
    def test_square_passes_tight(self):
        p = simulate(BrownianMotion(), 4096, 1.0, seed=30)
        coarser = [ito_decompose(SQUARE, dyadic_grid(p, lv)) for lv in (10, 11)]
        rep = ito_decompose(SQUARE, dyadic_grid(p, 12))
        assert rep.stats["max_abs_residual"] <= 1e-8 and rep.stats["max_identity_gap"] <= 1e-8
        growth = rep.stats["max_identity_gap"] - max(r.stats["max_identity_gap"] for r in coarser)
        assert growth <= 1e-10

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


class TestImportedPath:
    """A path read back from its CSV has no model, so no closed-form bracket: its report is
    that of the simulated path, with the closed-form column and the defect NaN."""

    COLUMNS = ("times", "lhs", "stochastic_integral", "compensator_term", "jump_term",
               "residual", "identity_gap", "jump_cell_residuals")

    @pytest.mark.parametrize("model, decompose, f", [(JD, ito_decompose, SQUARE),
                                                     (BrownianMotion(), tanaka_decompose, ABS)],
                             ids=["jd-ito-square", "bm-tanaka-abs"])
    def test_report_is_the_simulated_one_without_the_closed_form(self, tmp_path, model,
                                                                  decompose, f):
        p = simulate(model, 2048, 1.0, seed=41)
        p.to_csv(tmp_path / "paths.csv")
        q = SamplePath.from_csv(tmp_path / "paths.csv")
        assert q.model is None
        simulated = decompose(f, dyadic_grid(p, 11))
        imported = decompose(f, dyadic_grid(q, 11))
        assert imported.applicable
        for name in self.COLUMNS:
            got, want = getattr(imported, name), getattr(simulated, name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        assert np.all(np.isnan(imported.compensator_closed))
        assert imported.stats == simulated.stats
        assert imported.stats["max_identity_gap"] <= 1e-8

        # the summaries as a run writes them: strict JSON, NaN as null
        summaries = []
        for name, rep in (("imported", imported), ("simulated", simulated)):
            _write_json(tmp_path / f"{name}.json", rep.summary_dict())
            summaries.append(json.loads((tmp_path / f"{name}.json").read_text()))
        got, want = summaries
        assert got["bracket_defect"] is None
        assert got["final"]["compensator_closed"] is None
        assert got["notes"]["bracket"] is None
        assert got["path"] == {**want["path"], "model": "imported", "seed": None}
        for summary in summaries:
            del summary["bracket_defect"], summary["final"]["compensator_closed"]
            del summary["notes"]["bracket"], summary["path"]
        assert got == want


class TestReportStatistics:
    @pytest.mark.parametrize("model", [BrownianMotion(), JD])
    def test_summary_records_the_columns_extremes(self, model):
        p = simulate(model, 512, 1.0, seed=6)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 7))
        summary = rep.summary_dict()
        assert {k: summary[k] for k in rep.stats} == rep.stats == {
            "max_abs_residual": float(np.max(np.abs(rep.residual))),
            "max_identity_gap": float(np.max(rep.identity_gap)),
            "max_residual_decrease": -float(np.min(np.diff(rep.residual))),
            "max_jump_cell_residual": float(np.max(np.abs(rep.jump_cell_residuals), initial=0.0)),
        }

    def test_empty_conventions(self):
        p = simulate(BrownianMotion(), 4, 1.0, seed=1)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 0))
        assert rep.summary_dict()["max_jump_cell_residual"] == 0.0

    def test_a_flat_residual_reads_plus_zero(self):
        p = simulate(BrownianMotion(x0=5.0), 64, 1.0, seed=2)
        decrease = tanaka_decompose(ABS, dyadic_grid(p, 6)).stats["max_residual_decrease"]
        assert decrease == 0.0 and not np.signbit(decrease)


# ---------------------------------------------------------------------------
# the per-cell decomposition written column by column, as the reference
# ---------------------------------------------------------------------------


def reference_columns(f, grid, g=None):
    """Every column of the decomposition, each array built on its own: f at the left
    points, at the left limits and at the right points, and each running sum
    concatenated after a 0.  None when a derivative limit is missing."""
    path = grid.path
    gfn, _ = _resolve_derivative(f, path, 1, g)
    taufn, _ = _resolve_derivative(f, path, 2)
    if gfn is None or taufn is None:
        return None
    idx = grid.indices
    i, j = idx[:-1], idx[1:]
    a, m, d = path.values[i], path.pre_values[j], path.jump_size_at()[j]
    tg = path.times[idx]
    fa = np.asarray(f(a), dtype=float)
    fm = np.asarray(f(m), dtype=float)
    ta = np.asarray(taufn(a), dtype=float)

    stoch_cells = np.asarray(gfn(a), dtype=float) * (m - a)
    jump_mask = d != 0.0
    stoch_jump = (np.where(jump_mask, np.asarray(gfn(m), dtype=float) * d, 0.0)
                  if np.any(jump_mask) else None)
    comp_cells = ta * (m - a)**2
    rem_cells = fm - fa - stoch_cells
    resid_cells = rem_cells - comp_cells

    jump_cells = np.zeros(len(d))
    if stoch_jump is not None:
        fb = np.asarray(f(path.values[j]), dtype=float)
        jump_cells = np.where(jump_mask, fb - fm - stoch_jump, 0.0)
        stoch_cells = stoch_cells + stoch_jump

    fx = np.asarray(f(path.values[idx]), dtype=float)
    lhs = fx - fx[0]
    stoch = np.concatenate(([0.0], np.cumsum(stoch_cells)))
    comp = np.concatenate(([0.0], np.cumsum(comp_cells)))
    jump = np.concatenate(([0.0], np.cumsum(jump_cells)))
    resid = np.concatenate(([0.0], np.cumsum(resid_cells)))
    bt = path.model.bracket_coeffs[0] * tg
    return {
        "times": tg, "lhs": lhs, "stochastic_integral": stoch, "compensator_term": comp,
        "compensator_closed": np.concatenate(([0.0], np.cumsum(ta * np.diff(bt)))),
        "jump_term": jump, "residual": resid,
        "identity_gap": np.abs(lhs - (stoch + comp + jump + resid)),
        "jump_cell_residuals": resid_cells[jump_mask] if np.any(jump_mask) else np.array([]),
    }


PWL = make_scalar_fn("piecewise_linear", breakpoints=[-0.5, 0.0, 0.7],
                     slopes=[-1.0, 0.5, 2.0, -0.3], y0=0.2)
CATALOG_FNS = [PWL] + [make_scalar_fn(name) for name in CATALOG_NAMES
                       if name != "piecewise_linear"]
CPJ = CompoundPoissonJumps(rate=6.0, law=TwoPointLaw(0.5, 0.3, -0.4))


def assert_columns_match_reference(f, grid, mode="ito"):
    rep = (ito_decompose if mode == "ito" else tanaka_decompose)(f, grid)
    ref = reference_columns(f, grid)
    assert rep.applicable == (ref is not None)
    for name, col in (ref or {}).items():
        got = getattr(rep, name)
        assert got.shape == col.shape, name
        assert np.array_equal(got.view(np.int64), col.view(np.int64)), name


class TestReportMatchesReference:
    @given(f=st.sampled_from(CATALOG_FNS), model=st.sampled_from([BrownianMotion(), JD, CPJ, FV]),
           seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 2**10),
           mode=st.sampled_from(["ito", "tanaka"]), scheme=st.sampled_from(["dyadic", "hitting"]),
           level=st.integers(0, 10), scale=st.floats(1.0, 8.0))
    @settings(max_examples=120, deadline=None)
    def test_every_column_bitwise(self, f, model, seed, n_steps, mode, scheme, level, scale):
        p = simulate(model, n_steps, 1.0, seed=seed)
        grid = (dyadic_grid(p, level) if scheme == "dyadic"
                else hitting_grid(p, scale * max(2.0 * p.median_continuous_move(), 0.05)))
        assert_columns_match_reference(f, grid, mode)

    def test_left_limits_apart_from_values_without_jump_indices(self):
        # a path may carry left limits that differ from its values where no jump index
        # is marked (an imported CSV, say): f must then be taken at the left limits too
        p = simulate(BrownianMotion(), 256, 1.0, seed=3)
        pre = p.values.copy()
        pre[5::7] = np.nextafter(pre[5::7], np.inf)
        q = SamplePath(times=p.times, values=p.values, pre_values=pre,
                       jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]),
                       horizon=1.0, model=p.model)
        grid = dyadic_grid(q, 8)
        assert not np.array_equal(pre[grid.indices], p.values[grid.indices])
        for f in (ABS, COS, PWL):
            assert_columns_match_reference(f, grid)
