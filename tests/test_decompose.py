"""Tests for the decomposition verifier and its oracles."""

import io
import json
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
from pathcalc.catalog import _zero
from pathcalc.decompose import _grid_info, _path_info, _resolve_derivative
from pathcalc.riemann import _mesh

SQUARE = make_scalar_fn("square")
ABS = make_scalar_fn("abs")
XABS = make_scalar_fn("x_abs_x_half")
COS = make_scalar_fn("cos")
JD = JumpDiffusion(sigma=1.0, drift=0.1, rate=3.0, law=UniformLaw(-1.0, 1.0))
# a law with an atom at 0: a drawn size of 0 keeps its time point but is no jump
JD0 = JumpDiffusion(sigma=1.0, drift=0.0, rate=5.0, law=TwoPointLaw(0.5, 0.0, 1.0))
FV = FiniteVariationPath((0.0, 0.4, 1.0), (0.0, 0.8, 0.3))


def _xsin(x):
    x = np.asarray(x, dtype=float)
    safe = np.where(x != 0, x, 1.0)
    return np.where(x != 0, x * np.sin(1.0 / safe), 0.0)


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

    # x sin(1/x) declares no derivative; sign declares f' = 0 and no f''
    @pytest.mark.parametrize("f, order", [(ScalarFn("xsin", _xsin), "first"),
                                          (make_scalar_fn("sign"), "second")],
                             ids=["xsin", "sign"])
    def test_missing_derivative_limit_marks_not_applicable(self, f, order):
        p = simulate(BrownianMotion(), 512, 1.0, seed=19)
        assert p.values.min() < 0 < p.values.max()
        rep = ito_decompose(f, dyadic_grid(p, 9))
        assert not rep.applicable
        assert rep.summary_dict()["notes"] == {"reason": f"f declares no {order} derivative"}
        # no number to grade: the CLI reads each missing one as inf, which FAILs
        assert not set(rep.summary_dict()) & {"max_abs_residual", "max_identity_gap"}

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
            model=p.model, seed=p.seed,
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
        summary = rep.summary_dict()
        assert summary["max_identity_gap"] <= 1e-8 and summary["max_residual_decrease"] <= 1e-6
        assert summary["max_jump_cell_residual"] == 0.0
        assert rep.residual[-1] > 0.1
        assert np.all(np.diff(rep.residual) >= 0)
        oracle = occupation_local_time(p, 0.0, 0.02)
        assert rep.residual[-1] == pytest.approx(oracle, rel=0.5)

    def test_same_report_fails_as_ito(self):
        p = simulate(BrownianMotion(), 2**12, 1.0, seed=3)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 12))
        assert rep.summary_dict()["max_abs_residual"] > 1e-6

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

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -0.1])
    def test_eps_not_above_zero_is_a_value_error(self, eps):
        p = simulate(BrownianMotion(), 256, 1.0, seed=1)
        with pytest.raises(ValueError, match=r"^eps must be > 0, got "):
            occupation_local_time(p, 0.0, eps)

    def test_nan_level_is_a_value_error(self):
        p = simulate(BrownianMotion(), 256, 1.0, seed=1)
        with pytest.raises(ValueError, match=r"^level a must not be NaN, got nan$"):
            occupation_local_time(p, float("nan"), 0.2)

    @given(model=st.sampled_from([BrownianMotion(), JD, FV]), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(1, 2**12), scale=st.floats(1.0, 4.0),
           at=st.floats(0.0, 1.0), edge=st.sampled_from([-1.0, 0.0, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_band_cells_equal_the_all_cells_rule(self, model, seed, n_steps, scale, at, edge):
        p = simulate(model, n_steps, 1.0, seed=seed)
        eps = scale * max(p.median_continuous_move(), 1e-3)
        # a level that puts a band edge on a path value, or the path value mid-band
        a = float(p.values[int(at * (p.n_points - 1))]) - edge * eps
        assert _bits(occupation_local_time(p, a, eps)) == _bits(_all_cells_oracle(p, a, eps))

    @given(steps=st.lists(st.integers(-2, 2), min_size=1, max_size=40),
           a=st.integers(-8, 8), eps=st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=200, deadline=None)
    def test_flat_cells_and_cells_that_end_on_a_band_edge(self, steps, a, eps):
        # values on a 1/4 lattice: flat cells and cell ends meet the band edges exactly
        values = np.concatenate(([0.0], np.cumsum(steps) / 4))
        n = len(values)
        p = SamplePath(times=np.linspace(0.0, 1.0, n), values=values, pre_values=values,
                       jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]))
        a = a / 4
        assume(eps >= p.median_continuous_move())
        assert _bits(occupation_local_time(p, a, eps)) == _bits(_all_cells_oracle(p, a, eps))


def _all_cells_oracle(path, a, eps):
    """The occupation-time oracle computed on every cell of the path."""
    p, q = path.values[:-1], path.pre_values[1:]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    overlap = np.minimum(hi, a + eps) - np.maximum(lo, a - eps)
    flat = hi == lo
    frac = np.where(flat, ((lo > a - eps) & (lo < a + eps)).astype(float),
                    np.clip(overlap, 0.0, None) / np.where(flat, 1.0, hi - lo))
    return float(np.sum(np.diff(path.times) * frac)) / (2 * eps)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


class TestReportNumbers:
    @pytest.mark.parametrize("model, grid", [
        (BrownianMotion(), lambda p: dyadic_grid(p, 10)),
        (JD, lambda p: dyadic_grid(p, 10)),
        (BrownianMotion(), lambda p: hitting_grid(p, 0.1)),
    ], ids=["bm_dyadic", "jd_dyadic", "bm_hitting"])
    def test_the_reports_mesh_is_the_grids(self, model, grid):
        g = grid(simulate(model, 2048, 1.0, seed=4))
        # applicable reports of both modes, and a report that is not applicable
        for rep in (ito_decompose(XABS, g), tanaka_decompose(ABS, g),
                    ito_decompose(make_scalar_fn("sign"), g)):
            assert _bits(rep.summary_dict()["grid"]["mesh"]) == _bits(_mesh(g.times))
        assert not rep.applicable

    def test_square_passes_tight(self):
        p = simulate(BrownianMotion(), 4096, 1.0, seed=30)
        rep = ito_decompose(SQUARE, dyadic_grid(p, 12))
        summary = rep.summary_dict()
        assert summary["max_abs_residual"] <= 1e-8
        # the floor that the CLI's identity_gap_floor check grades
        assert summary["max_identity_gap"] <= 1e-10

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
                                                     (BrownianMotion(), tanaka_decompose, ABS),
                                                     (JD0, ito_decompose, SQUARE)],
                             ids=["jd-ito-square", "bm-tanaka-abs", "jd0-ito-square"])
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
        maxima = [{k: v for k, v in rep.summary_dict().items() if k.startswith("max_")}
                  for rep in (imported, simulated)]
        assert maxima[0] == maxima[1] and maxima[0]["max_identity_gap"] <= 1e-8

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
        assert {k: v for k, v in summary.items() if k.startswith("max_")} == {
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
        summary = tanaka_decompose(ABS, dyadic_grid(p, 6)).summary_dict()
        decrease = summary["max_residual_decrease"]
        assert decrease == 0.0 and not np.signbit(decrease)


# ---------------------------------------------------------------------------
# the per-cell decomposition written column by column, as the reference
# ---------------------------------------------------------------------------


def reference_columns(f, grid, g=None):
    """Every column of the decomposition, each array built on its own: f at the left
    points, at the left limits and at the right points, and each running sum
    concatenated after a 0.  None when f declares no derivative of an order needed."""
    path = grid.path
    gfn, _ = _resolve_derivative(f, 1, g)
    taufn, _ = _resolve_derivative(f, 2)
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
                       model=p.model)
        grid = dyadic_grid(q, 8)
        assert not np.array_equal(pre[grid.indices], p.values[grid.indices])
        for f in (ABS, COS, PWL):
            assert_columns_match_reference(f, grid)


# ---------------------------------------------------------------------------
# the eager decomposition, which built every column of each report when it made it, kept
# as the reference for the report's columns and its summary's numbers
# ---------------------------------------------------------------------------


def _eager_cells(grid):
    path, idx = grid.path, grid.indices
    j = idx[1:]
    d = None
    if len(path.jump_indices):
        d = path.jump_size_at()[j]
        if not np.any(d != 0.0):
            d = None
    x = path.values[idx]
    return x, x[1:] if path.pre_values is path.values else path.pre_values[j], d


def _eager_integrand_cells(g, a, m, d):
    cont = np.asarray(g(a), dtype=float) * (m - a)
    if d is None:
        return cont, None
    return cont, np.where(d != 0.0, np.asarray(g(m), dtype=float) * d, 0.0)


def _eager_cumulative(cells):
    col = np.empty(len(cells) + 1)
    col[0] = 0.0
    np.cumsum(cells, out=col[1:])
    return col


def eager_decompose(f, grid, g, mode):
    """Every column, ``jump_cell_residuals`` and the summary of the eager decomposition."""
    path = grid.path
    gfn, g_label = _resolve_derivative(f, 1, g)
    taufn, tau_label = _resolve_derivative(f, 2)
    if gfn is None or taufn is None:
        order = "first" if gfn is None else "second"
        empty = np.array([])
        return {name: empty for name in EAGER_COLUMNS}, {
            "mode": mode, "f": f.label, "applicable": False, "path": _path_info(path),
            "grid": _grid_info(grid, grid.times),
            "notes": {"reason": f"f declares no {order} derivative"}}

    x, m, d = _eager_cells(grid)
    a = x[:-1]
    tg = path.times[grid.indices]
    fx = np.asarray(f(x), dtype=float)
    fa, fb = fx[:-1], fx[1:]
    same = (path.pre_values is path.values
            or np.array_equal(m.view(np.int64), x[1:].view(np.int64)))
    fm = fb if same else np.asarray(f(m), dtype=float)
    ta = np.asarray(taufn(a), dtype=float)

    stoch_cells, stoch_jump = _eager_integrand_cells(gfn, a, m, d)
    comp_cells = ta * (m - a)**2
    resid_cells = fm - fa
    resid_cells -= stoch_cells
    resid_cells -= comp_cells

    if stoch_jump is None:
        jump = np.zeros(len(x))
        jump_cell_residuals = np.array([])
    else:
        jump_mask = d != 0.0
        jump = _eager_cumulative(np.where(jump_mask, fb - fm - stoch_jump, 0.0))
        jump_cell_residuals = resid_cells[jump_mask]
        stoch_cells += stoch_jump

    lhs = fx - fx[0]
    stoch = _eager_cumulative(stoch_cells)
    comp = _eager_cumulative(comp_cells)
    resid = _eager_cumulative(resid_cells)
    gap = stoch + comp
    gap += jump
    gap += resid
    np.subtract(lhs, gap, out=gap)
    np.abs(gap, out=gap)

    coeffs = getattr(path.model, "bracket_coeffs", None)
    if coeffs is None:
        comp_closed, bracket = np.full(len(tg), np.nan), None
    else:
        cont, jump_coeff = coeffs
        comp_closed = _eager_cumulative(ta * np.diff(cont * tg))
        bracket = {"cont_coeff": cont, "jump_coeff": jump_coeff}

    columns = {"times": tg, "lhs": lhs, "stochastic_integral": stoch,
               "compensator_term": comp, "compensator_closed": comp_closed,
               "jump_term": jump, "residual": resid, "identity_gap": gap,
               "jump_cell_residuals": jump_cell_residuals}
    incr = np.diff(resid) if len(resid) > 1 else np.array([0.0])
    jumps = jump_cell_residuals
    summary = {
        "mode": mode, "f": f.label, "g": g_label, "applicable": True,
        "path": _path_info(path), "grid": _grid_info(grid, tg),
        "final": {name: float(columns[name][-1]) for name in
                  ("lhs", "stochastic_integral", "compensator_term", "compensator_closed",
                   "jump_term", "residual")},
        "max_abs_residual": float(np.max(np.abs(resid))),
        "max_identity_gap": float(np.max(gap)),
        "max_residual_decrease": 0.0 - float(np.min(incr)),
        "max_jump_cell_residual": float(np.max(np.abs(jumps))) if len(jumps) else 0.0,
        "bracket_defect": float(np.max(np.abs(comp - comp_closed))),
        "notes": {"tau": tau_label, "bracket": bracket},
    }
    return columns, summary


EAGER_COLUMNS = ("times", "lhs", "stochastic_integral", "compensator_term",
                 "compensator_closed", "jump_term", "residual", "identity_gap",
                 "jump_cell_residuals")


def _float_bits(obj):
    """``obj`` with each float replaced by its bits, so that NaN equals NaN and -0.0 is
    not 0.0."""
    if isinstance(obj, dict):
        return {k: _float_bits(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return ("float", _bits(obj))
    return obj


def assert_report_is_the_eager_one(report, eager):
    columns, summary = eager
    assert _float_bits(report.summary_dict()) == _float_bits(summary)
    for name, want in columns.items():
        got = getattr(report, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def _decomposer(mode):
    return ito_decompose if mode == "ito" else tanaka_decompose


def _reference_grid(path, scheme, partial):
    """A dyadic grid that holds every index of the path (``full``), one of about a
    ``partial`` share of them, or a hitting grid."""
    if scheme == "hitting":
        return hitting_grid(path, max(3.0 * path.median_continuous_move(), 0.05))
    full = int(np.ceil(np.log2(path.n_points))) + 1
    return dyadic_grid(path, full if scheme == "full" else max(0, int(full * partial)))


REFERENCE_MODELS = {"bm": BrownianMotion(), "bm_drift": BrownianMotion(sigma=0.7, drift=0.9),
                    "jd": JD, "jd0": JD0, "cpj": CPJ, "fv": FV}


class TestReportMatchesEagerReference:
    """The report keeps its summary's numbers, taken from the calling thread's scratch
    arrays, and builds its columns on first read: both match the eager decomposition
    bit for bit."""

    @given(model=st.sampled_from(sorted(REFERENCE_MODELS)), imported=st.booleans(),
           seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 2**11),
           scheme=st.sampled_from(["full", "partial", "hitting"]), partial=st.floats(0.0, 1.0),
           f=st.sampled_from(CATALOG_FNS), g=st.sampled_from([None, SQUARE, ABS, COS]),
           mode=st.sampled_from(["ito", "tanaka"]), jumps_first=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_columns_and_summary_bitwise(self, tmp_path_factory, model, imported, seed,
                                         n_steps, scheme, partial, f, g, mode, jumps_first):
        path = simulate(REFERENCE_MODELS[model], n_steps, 1.0, seed=seed)
        if imported:
            csv = tmp_path_factory.mktemp("imported") / "paths.csv"
            path.to_csv(csv)
            path = SamplePath.from_csv(csv)
        grid = _reference_grid(path, scheme, partial)
        report = _decomposer(mode)(f, grid, g=g)
        eager = eager_decompose(f, grid, g, mode)
        if jumps_first:
            # the first read of a fresh report builds every column
            got, want = report.jump_cell_residuals, eager[0]["jump_cell_residuals"]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert_report_is_the_eager_one(report, eager)

    def test_a_later_report_on_the_thread_leaves_an_earlier_one_as_it_was(self):
        grids = [dyadic_grid(simulate(JD, 1024, 1.0, seed=seed), 10) for seed in (5, 6)]
        first = tanaka_decompose(ABS, grids[0])
        held = {name: getattr(first, name).copy() for name in EAGER_COLUMNS}
        summary = first.summary_dict()
        # a second report of the same length on this thread writes the same scratch arrays
        second = ito_decompose(COS, grids[1])
        assert _float_bits(first.summary_dict()) == _float_bits(summary)
        for name, col in held.items():
            assert np.array_equal(getattr(first, name).view(np.int64), col.view(np.int64))
        assert_report_is_the_eager_one(first, eager_decompose(ABS, grids[0], None, "tanaka"))
        assert_report_is_the_eager_one(second, eager_decompose(COS, grids[1], None, "ito"))

    def test_a_short_path_after_a_long_one(self):
        reports = []
        for n_steps, seed in ((4096, 7), (16, 8), (4096, 9), (1, 10)):
            grid = dyadic_grid(simulate(BrownianMotion(), n_steps, 1.0, seed=seed), 12)
            reports.append((grid, tanaka_decompose(ABS, grid)))
        for grid, report in reports:
            assert_report_is_the_eager_one(report, eager_decompose(ABS, grid, None, "tanaka"))

    def test_reports_made_in_pool_threads_and_read_in_the_main_thread(self):
        def made(seed):
            path = simulate(BrownianMotion(), 2048 if seed % 2 else 512, 1.0, seed=seed)
            grid = dyadic_grid(path, 11)
            return grid, tanaka_decompose(ABS, grid)

        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(made, range(12)))
        for grid, report in reports:
            assert_report_is_the_eager_one(report, eager_decompose(ABS, grid, None, "tanaka"))

    def test_columns_are_read_only_properties(self):
        report = ito_decompose(SQUARE, dyadic_grid(simulate(BrownianMotion(), 64, 1.0, seed=1), 6))
        for name in (*EAGER_COLUMNS, "applicable"):
            with pytest.raises(AttributeError):
                setattr(report, name, np.array([]))
        # a column built once is the array that later reads get
        assert report.residual is report.residual

    @pytest.mark.parametrize("f", [SQUARE, make_scalar_fn("sign")], ids=["applicable", "not"])
    def test_an_edited_summary_leaves_the_next_one_as_it_was(self, f):
        report = ito_decompose(f, dyadic_grid(simulate(JD, 256, 1.0, seed=3), 8))
        want = _float_bits(report.summary_dict())
        edited = report.summary_dict()
        edited["applicable"] = "edited"
        edited.pop("mode")
        if report.applicable:
            edited["final"]["residual"] = 1e9
            edited["final"].pop("lhs")
            edited["max_abs_residual"] = 1e9
        assert _float_bits(report.summary_dict()) == want
        assert report.applicable == (f is SQUARE)


# ---------------------------------------------------------------------------
# a declared zero curvature
# ---------------------------------------------------------------------------


def _computed_zero(f):
    """f with its declared f'' replaced by an equal-valued function that the
    decomposition does not recognise, so that it computes every curvature cell."""
    return ScalarFn(label=f.label, fn=f.fn, convex=f.convex, derivatives={
        **f.derivatives, 2: lambda x: np.zeros_like(np.asarray(x, dtype=float))})


def _hand_built(values, times, model):
    values = np.asarray(values, dtype=float)
    return SamplePath(times=np.asarray(times, dtype=float), values=values, pre_values=values,
                      jump_indices=np.array([], dtype=np.int64), jump_sizes=np.array([]),
                      model=model)


ZERO_CURVATURE_FNS = [PWL] + [make_scalar_fn(name) for name in ("abs", "identity", "relu")]


class TestZeroCurvature:
    """A report of an f that declares the catalog's zero as f'' skips its curvature cells,
    and has the bits of the report that computes them."""

    def assert_reports_match(self, f, grid, mode):
        declared = _decomposer(mode)(f, grid)
        computed = _decomposer(mode)(_computed_zero(f), grid)
        assert declared.summary_dict()["notes"]["tau"] == f"half-D2{f.label}"
        assert _float_bits(declared.summary_dict()) == _float_bits(computed.summary_dict())
        for name in EAGER_COLUMNS:
            got, want = getattr(declared, name), getattr(computed, name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        return declared

    @pytest.mark.parametrize("f", ZERO_CURVATURE_FNS, ids=lambda f: f.label)
    def test_the_catalog_declares_the_zero_that_is_recognised(self, f):
        assert f.derivative(2) is _zero and _resolve_derivative(f, 2)[0] is _zero
        assert _resolve_derivative(_computed_zero(f), 2)[0] is not _zero

    @pytest.mark.parametrize("source", ["bm", "jd", "imported"])
    @pytest.mark.parametrize("mode", ["ito", "tanaka"])
    @pytest.mark.parametrize("f", ZERO_CURVATURE_FNS, ids=lambda f: f.label)
    def test_declared_and_computed_zeros_give_the_same_bits(self, tmp_path, f, mode, source):
        path = simulate(BrownianMotion() if source == "bm" else JD, 2048, 1.0, seed=71)
        if source == "imported":
            path.to_csv(tmp_path / "paths.csv")
            path = SamplePath.from_csv(tmp_path / "paths.csv")
        report = self.assert_reports_match(f, dyadic_grid(path, 11), mode)
        assert not np.any(report.compensator_term)
        if source != "imported":
            assert not np.any(report.compensator_closed)

    @pytest.mark.parametrize("mode", ["ito", "tanaka"])
    def test_an_overflowing_move_keeps_the_general_algebra(self, mode):
        # m - a overflows to -inf, and 0 * inf makes a NaN curvature cell
        path = _hand_built([0.0, 1.5e308, -1.5e308, 1.0, 0.0], np.linspace(0.0, 1.0, 5),
                           BrownianMotion())
        with np.errstate(over="ignore", invalid="ignore"):
            report = self.assert_reports_match(ABS, dyadic_grid(path, 2), mode)
        assert np.isnan(report.compensator_term[-1])

    @pytest.mark.parametrize("mode", ["ito", "tanaka"])
    def test_an_overflowing_bracket_keeps_the_general_algebra(self, mode):
        # sigma^2 t overflows to inf at t = 2e9, and 0 * (inf - 1e309) is NaN
        path = _hand_built([0.0, 0.5, -0.25, 1.0, 0.0], [0.0, 1e8, 1e9, 2e9, 3e9],
                           BrownianMotion(sigma=1e150))
        with np.errstate(over="ignore", invalid="ignore"):
            report = self.assert_reports_match(ABS, dyadic_grid(path, 2), mode)
        assert not np.any(report.compensator_term)
        assert np.isnan(report.compensator_closed[-1])
