"""Term-by-term verification of Ito/Tanaka-style decompositions along paths.

For a scalar f with a.e. derivative g, each grid cell splits the increment
of f(X) exactly into a left-point stochastic-integral part, a curvature
part tau(X) d[X^c] with tau = f''/2 evaluated against the realized squared
continuous moves, a jump part, and a residual.  The residual is the
estimator of the continuous increasing process A^c: it vanishes
identically for f(x) = x^2 (per-cell algebra), tends to zero under
refinement for functions with bounded second ratios, and recovers the
local time for f = |x|.

The closed-form bracket of the model is kept as a separate oracle column
(``compensator_closed``); the defect between realized and closed-form
bracket weighting is reported as a diagnostic, never folded into the
residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ResolutionExhaustedError, UnsupportedModelError
from .functional import ScalarFn, _raw_ratio, derivative_limit, increment_fn
from .paths import SamplePath
from .riemann import RiemannGrid

__all__ = [
    "BracketModel",
    "DecompositionReport",
    "VerdictRecord",
    "stochastic_integral",
    "ito_decompose",
    "tanaka_decompose",
    "occupation_local_time",
    "verify_report",
]


# ---------------------------------------------------------------------------
# sharp brackets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketModel:
    """Closed-form brackets t -> <X^c>_t and t -> <X>_t for a path model.

    Both are linear in t for the supported models: the continuous part
    carries sigma^2 and the jump compensator adds rate * E[J^2].
    """

    cont_coeff: float
    jump_coeff: float

    def __post_init__(self):
        if self.cont_coeff < 0 or self.jump_coeff < 0:
            raise ValueError("bracket coefficients must be >= 0")

    def continuous_at(self, t):
        return self.cont_coeff * np.asarray(t, dtype=float)

    def total_at(self, t):
        return (self.cont_coeff + self.jump_coeff) * np.asarray(t, dtype=float)

    @classmethod
    def from_model(cls, model) -> "BracketModel":
        try:
            coeffs = model.bracket_coeffs
        except AttributeError:
            raise UnsupportedModelError(f"no closed-form bracket for {model!r}") from None
        return cls(*coeffs)


# ---------------------------------------------------------------------------
# derivative surrogates
# ---------------------------------------------------------------------------


def _derivative_surrogate(f: ScalarFn, order: int, lo: float, hi: float) -> Optional[Callable]:
    """Vanishing-step derivative sampled on 65 nodes over [lo, hi] padded by 5%,
    linearly interpolated.

    Returns None as soon as the limit fails at any probe node (0 is always
    probed when it lies in range, since kinks usually sit there).
    """
    span = max(hi - lo, 1e-6)
    nodes = np.linspace(lo - 0.05 * span, hi + 0.05 * span, 65)
    if nodes[0] < 0.0 < nodes[-1] and not np.any(nodes == 0.0):
        nodes = np.sort(np.append(nodes, 0.0))
    F = increment_fn(f)
    vals = []
    for x in nodes:
        d = derivative_limit(F, order, float(x))
        if not d.exists:
            return None
        vals.append(d.value)
    vals = np.asarray(vals)
    return lambda x: np.interp(np.asarray(x, dtype=float), nodes, vals)


def _resolve_derivative(f: ScalarFn, path: SamplePath, order: int, given=None):
    """Callable and label for g = f' (order 1) or tau = f''/2 (order 2).

    A ``given`` callable wins; else the declared derivative of f; else the
    grid surrogate over the path range.  Returns (None, "") when no
    derivative limit exists there.
    """
    if given is not None:
        return given, getattr(given, "label", "custom")
    fn, suffix = f.derivative(order), ""
    if fn is None:
        lo, hi = float(np.min(path.values)), float(np.max(path.values))
        fn, suffix = _derivative_surrogate(f, order, lo, hi), "~grid"
        if fn is None:
            return None, ""
    if order == 1:
        return fn, f"D+{f.label}{suffix}"
    return (lambda x: 0.5 * np.asarray(fn(x), dtype=float)), f"half-D2{f.label}{suffix}"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """Per-time series of every term of the decomposition along a grid.

    At each grid time: ``lhs = stochastic_integral + compensator_term +
    jump_term + residual`` up to ``identity_gap`` (the floating-point
    closure defect of the independently accumulated columns).  The
    ``compensator_closed`` column integrates the same curvature surrogate
    against the model's closed-form bracket; its gap to
    ``compensator_term`` is the realized-vs-closed bracket defect,
    reported in ``notes``.
    """

    mode: str
    f_label: str
    g_label: str
    path_info: dict
    grid_info: dict
    times: np.ndarray
    lhs: np.ndarray
    stochastic_integral: np.ndarray
    compensator_term: np.ndarray
    compensator_closed: np.ndarray
    jump_term: np.ndarray
    residual: np.ndarray
    identity_gap: np.ndarray
    jump_cell_residuals: np.ndarray
    applicable: bool
    notes: dict

    @cached_property
    def stats(self) -> dict:
        """Extremes that summary and verdict read (applicable reports); absent ones read 0."""
        incr = np.diff(self.residual) if len(self.residual) > 1 else np.array([0.0])
        jumps = self.jump_cell_residuals
        return {
            "max_abs_residual": float(np.max(np.abs(self.residual))),
            "max_identity_gap": float(np.max(self.identity_gap)),
            "min_residual_increment": float(np.min(incr)),
            "max_jump_cell_residual": float(np.max(np.abs(jumps))) if len(jumps) else 0.0,
        }

    def summary_dict(self) -> dict:
        if not self.applicable:
            return {"mode": self.mode, "f": self.f_label, "applicable": False,
                    "path": self.path_info, "grid": self.grid_info, "notes": self.notes}
        return {
            "mode": self.mode,
            "f": self.f_label,
            "g": self.g_label,
            "applicable": True,
            "path": self.path_info,
            "grid": self.grid_info,
            "final": {
                "lhs": float(self.lhs[-1]),
                "stochastic_integral": float(self.stochastic_integral[-1]),
                "compensator_term": float(self.compensator_term[-1]),
                "compensator_closed": float(self.compensator_closed[-1]),
                "jump_term": float(self.jump_term[-1]),
                "residual": float(self.residual[-1]),
            },
            **self.stats,
            "bracket_defect": float(np.max(np.abs(self.compensator_term - self.compensator_closed))),
            "notes": self.notes,
        }

    def series_csv(self, fh) -> None:
        """Compact per-time CSV: t, lhs, stochastic integral, compensator, jumps, residual."""
        fh.write("t,lhs,stoch_integral,compensator,jump_term,residual\n")
        for row in zip(self.times, self.lhs, self.stochastic_integral,
                       self.compensator_term, self.jump_term, self.residual):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _not_applicable(mode, f, grid, reason) -> DecompositionReport:
    empty = np.array([])
    return DecompositionReport(
        mode=mode, f_label=f.label, g_label="", path_info=_path_info(grid.path),
        grid_info=_grid_info(grid), times=empty, lhs=empty,
        stochastic_integral=empty, compensator_term=empty,
        compensator_closed=empty, jump_term=empty, residual=empty,
        identity_gap=empty, jump_cell_residuals=empty,
        applicable=False, notes={"reason": reason},
    )


def _path_info(path: SamplePath) -> dict:
    return {
        "model": getattr(path.model, "label", "imported"),
        "seed": path.seed,
        "n_points": path.n_points,
        "n_jumps": int(len(path.jump_indices)),
    }


def _grid_info(grid: RiemannGrid) -> dict:
    return {"scheme": grid.scheme, "param": grid.param, "n_cells": len(grid) - 1,
            "mesh": grid.mesh}


# ---------------------------------------------------------------------------
# cell-level decomposition
# ---------------------------------------------------------------------------


def _cells(grid: RiemannGrid):
    """Per-cell left and right indices, left value, continuous right value and jump size."""
    path, idx = grid.path, grid.indices
    i, j = idx[:-1], idx[1:]
    return i, j, path.values[i], path.pre_values[j], path.jump_size_at()[j]


def _integrand_cells(g, a, m, d):
    """Per-cell g(X_-) Delta X, split exactly at jump times.

    The continuous move m - a is weighted by g at the cell's left point a,
    and the jump displacement d by g at the left limit m, so a jump
    contributes g(X_{s-}) Delta X_s.  Returns (continuous part, jump part);
    the jump part is None when no cell ends at a jump.
    """
    cont = np.asarray(g(a), dtype=float) * (m - a)
    jumps = d != 0.0
    if not np.any(jumps):
        return cont, None
    return cont, np.where(jumps, np.asarray(g(m), dtype=float) * d, 0.0)


def stochastic_integral(g, grid: RiemannGrid) -> np.ndarray:
    """Cumulative left-point sums of g(X_-) dX along the grid's path (see :func:`_integrand_cells`)."""
    _, _, a, m, d = _cells(grid)
    cont, jump = _integrand_cells(g, a, m, d)
    vals = cont if jump is None else cont + jump
    return np.concatenate(([0.0], np.cumsum(vals)))


def _decompose(f, grid, bracket, g, mode) -> DecompositionReport:
    path = grid.path
    bracket = bracket or BracketModel.from_model(path.model)
    gfn, g_label = _resolve_derivative(f, path, 1, g)
    if gfn is None:
        return _not_applicable(mode, f, grid, "no first derivative limit on the path range")
    taufn, tau_label = _resolve_derivative(f, path, 2)
    if taufn is None:
        return _not_applicable(mode, f, grid, "no second derivative limit on the path range")

    i, j, a, m, d = _cells(grid)
    idx = grid.indices
    tg = path.times[idx]
    fa = np.asarray(f(a), dtype=float)
    fm = np.asarray(f(m), dtype=float)
    ta = np.asarray(taufn(a), dtype=float)

    stoch_cells, stoch_jump = _integrand_cells(gfn, a, m, d)
    comp_cells = ta * (m - a)**2
    rem_cells = fm - fa - stoch_cells
    resid_cells = rem_cells - comp_cells

    jump_mask = d != 0.0
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
    gap = np.abs(lhs - (stoch + comp + jump + resid))

    bt = np.asarray(bracket.continuous_at(tg), dtype=float)
    comp_closed_cells = ta * np.diff(bt)
    comp_closed = np.concatenate(([0.0], np.cumsum(comp_closed_cells)))

    notes = {"tau": tau_label,
             "bracket": {"cont_coeff": bracket.cont_coeff, "jump_coeff": bracket.jump_coeff}}
    return DecompositionReport(
        mode=mode, f_label=f.label, g_label=g_label,
        path_info=_path_info(path), grid_info=_grid_info(grid),
        times=tg, lhs=lhs, stochastic_integral=stoch,
        compensator_term=comp, compensator_closed=comp_closed,
        jump_term=jump, residual=resid, identity_gap=gap,
        jump_cell_residuals=resid_cells[jump_mask] if np.any(jump_mask) else np.array([]),
        applicable=True, notes=notes,
    )


def ito_decompose(
    f: ScalarFn, grid: RiemannGrid, bracket: Optional[BracketModel] = None, g=None,
) -> DecompositionReport:
    """Decomposition report along the grid's path for a function with bounded second ratios.

    For such f the residual column must vanish under refinement; the exact
    per-cell algebra makes it identically zero (to rounding) for
    f(x) = x^2 on every path and grid.
    """
    return _decompose(f, grid, bracket, g, mode="ito")


def tanaka_decompose(
    f: ScalarFn, grid: RiemannGrid, bracket: Optional[BracketModel] = None, g=None,
) -> DecompositionReport:
    """Decomposition report keeping the residual as the increasing part A^c.

    ``g`` defaults to the right-derivative convention of the catalog; for
    f = |x| the curvature surrogate is 0, so the residual accumulates
    exactly the remainder terms of the zero-crossing cells (the local
    time).  A quick lower-bound scan of the second ratios over the path
    range is recorded in the notes.
    """
    report = _decompose(f, grid, bracket, g, mode="tanaka")
    if report.applicable:
        lo = float(np.min(grid.path.values))
        hi = float(np.max(grid.path.values))
        xs = np.linspace(lo, hi, 41)
        F = increment_fn(f)
        h = max((hi - lo) * 1e-3, 1e-6)
        vals = np.asarray(_raw_ratio(F, 2, xs, [h, h]), dtype=float)
        report.notes["second_ratio_lower_bound"] = float(np.min(vals))
    return report


# ---------------------------------------------------------------------------
# occupation-time oracle
# ---------------------------------------------------------------------------


def occupation_local_time(path: SamplePath, a: float, eps: float) -> float:
    """(1 / 2 eps) x time the linearly interpolated path spends in (a-eps, a+eps).

    Exact for piecewise-linear paths; jump displacements occupy zero time.
    Raises :class:`ResolutionExhaustedError` when eps is below the median
    absolute continuous move of the path.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    median_move = path.median_continuous_move()
    if eps < median_move:
        raise ResolutionExhaustedError(
            f"eps={eps} is below the median continuous move {median_move:.3g}"
        )
    p = path.values[:-1]
    q = path.pre_values[1:]
    w = np.diff(path.times)
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    band_lo, band_hi = a - eps, a + eps
    overlap = np.minimum(hi, band_hi) - np.maximum(lo, band_lo)
    flat = hi == lo
    frac = np.where(
        flat,
        ((lo > band_lo) & (lo < band_hi)).astype(float),
        np.clip(overlap, 0.0, None) / np.where(flat, 1.0, hi - lo),
    )
    return float(np.sum(w * frac)) / (2 * eps)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRecord:
    mode: str
    checks: dict
    passed: bool

    def to_json_dict(self):
        return {"mode": self.mode, "checks": self.checks, "passed": self.passed}


def _at_most(value: float, bound: float) -> dict:
    return {"value": value, "bound": bound, "passed": value <= bound}


def verify_report(
    report: DecompositionReport,
    mode: str,
    tol: float = 1e-8,
    jump_tol: float = 1e-3,
    gap_tol: Optional[float] = None,
    coarser=(),
) -> VerdictRecord:
    """Grade a report: residual smallness (ito) or A^c shape (tanaka).

    ``coarser`` may hold reports of the same experiment at coarser grids;
    the identity-gap closure must then not grow under refinement (within a
    1e-10 rounding floor).  Verdicts are data, never exceptions.
    """
    if mode not in ("ito", "tanaka"):
        raise ValueError("mode must be 'ito' or 'tanaka'")
    checks: dict = {}
    if not report.applicable:
        checks["applicable"] = {"value": False, "bound": True, "passed": False}
        return VerdictRecord(mode=mode, checks=checks, passed=False)

    gap_tol = tol if gap_tol is None else gap_tol
    stats = report.stats
    gap_max = stats["max_identity_gap"]
    checks["identity_gap_max"] = _at_most(gap_max, gap_tol)

    if mode == "ito":
        checks["max_abs_residual"] = _at_most(stats["max_abs_residual"], tol)
    else:
        min_incr = stats["min_residual_increment"]
        checks["residual_increments_min"] = {"value": min_incr, "bound": -tol,
                                             "passed": min_incr >= -tol}
        start = float(abs(report.residual[0])) if len(report.residual) else 0.0
        checks["residual_starts_at_zero"] = _at_most(start, tol)
        checks["max_jump_time_increment"] = _at_most(stats["max_jump_cell_residual"], jump_tol)

    coarser_gaps = [r.stats["max_identity_gap"] for r in coarser if r.applicable]
    if coarser_gaps:
        checks["identity_gap_nonincreasing"] = _at_most(gap_max, max(coarser_gaps) + 1e-10)

    passed = all(c["passed"] for c in checks.values())
    return VerdictRecord(mode=mode, checks=checks, passed=passed)
