"""Term-by-term verification of Ito/Tanaka-style decompositions along paths.

For a scalar f with a.e. derivative g, each grid cell splits the increment
of f(X) exactly into a left-point stochastic-integral part, a curvature
part tau(X) d[X^c] with tau = f''/2 evaluated against the realized squared
continuous moves, a jump part, and a residual.  The residual is the
estimator of the continuous increasing process A^c: it vanishes
identically for f(x) = x^2 (per-cell algebra), tends to zero under
refinement for functions with bounded second ratios, and recovers the
local time for f = |x|.

The closed-form bracket of the model, its ``bracket_coeffs``, is kept as
a separate oracle column (``compensator_closed``); the defect between
realized and closed-form bracket weighting is reported as a diagnostic,
never folded into the residual.  A path with no model (one read by
``SamplePath.from_csv``) has no closed form: that column and the defect
are NaN, and every other column is the same as for the simulated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ResolutionExhaustedError
from .functional import ScalarFn, _raw_ratio, derivative_limit, increment_fn
from .paths import SamplePath, _write_float_rows
from .riemann import RiemannGrid

__all__ = [
    "DecompositionReport",
    "ito_decompose",
    "tanaka_decompose",
    "occupation_local_time",
]


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
    ``compensator_term`` is the realized-vs-closed bracket defect.  Both
    are NaN for a path with no model.
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
        """Extremes that the summary records and the CLI grades (applicable reports), each
        an upper bound's value; absent ones read 0.  ``max_residual_decrease`` is minus
        the least residual increment, at most 0 when the residual never decreases."""
        incr = np.diff(self.residual) if len(self.residual) > 1 else np.array([0.0])
        jumps = self.jump_cell_residuals
        return {
            "max_abs_residual": float(np.max(np.abs(self.residual))),
            "max_identity_gap": float(np.max(self.identity_gap)),
            # 0.0 - x, not -x, so that a least increment of 0.0 reads 0.0, not -0.0
            "max_residual_decrease": 0.0 - float(np.min(incr)),
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
        """Write the per-time CSV t, lhs, stoch_integral, compensator, jump_term, residual to ``fh``.

        Each field is the ``repr`` of the value as a Python float, fields are
        separated by "," and every line, the header's too, ends in "\\n".
        """
        _write_float_rows(fh, "t,lhs,stoch_integral,compensator,jump_term,residual",
                          [self.times, self.lhs, self.stochastic_integral,
                           self.compensator_term, self.jump_term, self.residual])


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
    """The path's values at the grid points, the cells' continuous right values and the
    cells' jump sizes, None when no cell ends at a jump."""
    path, idx = grid.path, grid.indices
    j = idx[1:]
    d = None
    if len(path.jump_indices):
        d = path.jump_size_at()[j]
        if not np.any(d != 0.0):
            d = None
    return path.values[idx], path.pre_values[j], d


def _integrand_cells(g, a, m, d):
    """Per-cell g(X_-) Delta X, split exactly at jump times.

    The continuous move m - a is weighted by g at the cell's left point a,
    and the jump displacement d by g at the left limit m, so a jump
    contributes g(X_{s-}) Delta X_s.  Returns (continuous part, jump part);
    the jump part is None when d is None (no cell ends at a jump).
    """
    cont = np.asarray(g(a), dtype=float) * (m - a)
    if d is None:
        return cont, None
    return cont, np.where(d != 0.0, np.asarray(g(m), dtype=float) * d, 0.0)


def _cumulative(cells: np.ndarray) -> np.ndarray:
    """0 followed by the running sums of ``cells``."""
    col = np.empty(len(cells) + 1)
    col[0] = 0.0
    np.cumsum(cells, out=col[1:])
    return col


def _decompose(f, grid, g, mode) -> DecompositionReport:
    path = grid.path
    gfn, g_label = _resolve_derivative(f, path, 1, g)
    if gfn is None:
        return _not_applicable(mode, f, grid, "no first derivative limit on the path range")
    taufn, tau_label = _resolve_derivative(f, path, 2)
    if taufn is None:
        return _not_applicable(mode, f, grid, "no second derivative limit on the path range")

    x, m, d = _cells(grid)
    a = x[:-1]
    tg = path.times[grid.indices]
    # f once at the grid points; a cell's left limit is its right value bit for bit
    # unless the cell ends at a jump (or the path's left limits differ from its values)
    fx = np.asarray(f(x), dtype=float)
    fa, fb = fx[:-1], fx[1:]
    same = np.array_equal(m.view(np.int64), x[1:].view(np.int64))
    fm = fb if same else np.asarray(f(m), dtype=float)
    ta = np.asarray(taufn(a), dtype=float)

    stoch_cells, stoch_jump = _integrand_cells(gfn, a, m, d)
    comp_cells = ta * (m - a)**2
    resid_cells = fm - fa
    resid_cells -= stoch_cells
    resid_cells -= comp_cells

    if stoch_jump is None:
        jump = np.zeros(len(x))
        jump_cell_residuals = np.array([])
    else:
        jump_mask = d != 0.0
        jump = _cumulative(np.where(jump_mask, fb - fm - stoch_jump, 0.0))
        jump_cell_residuals = resid_cells[jump_mask]
        stoch_cells += stoch_jump

    lhs = fx - fx[0]
    stoch = _cumulative(stoch_cells)
    comp = _cumulative(comp_cells)
    resid = _cumulative(resid_cells)
    # the closure defect, summed in the order ((stoch + comp) + jump) + resid
    gap = stoch + comp
    gap += jump
    gap += resid
    np.subtract(lhs, gap, out=gap)
    np.abs(gap, out=gap)

    # the closed-form bracket <X^c>_t = cont_coeff t, absent for a path with no model
    coeffs = getattr(path.model, "bracket_coeffs", None)
    if coeffs is None:
        comp_closed, bracket = np.full(len(tg), np.nan), None
    else:
        cont, jump_coeff = coeffs
        comp_closed = _cumulative(ta * np.diff(cont * tg))
        bracket = {"cont_coeff": cont, "jump_coeff": jump_coeff}

    notes = {"tau": tau_label, "bracket": bracket}
    return DecompositionReport(
        mode=mode, f_label=f.label, g_label=g_label,
        path_info=_path_info(path), grid_info=_grid_info(grid),
        times=tg, lhs=lhs, stochastic_integral=stoch,
        compensator_term=comp, compensator_closed=comp_closed,
        jump_term=jump, residual=resid, identity_gap=gap,
        jump_cell_residuals=jump_cell_residuals,
        applicable=True, notes=notes,
    )


def ito_decompose(f: ScalarFn, grid: RiemannGrid, *, g=None) -> DecompositionReport:
    """Decomposition report along the grid's path for a function with bounded second ratios.

    For such f the residual column must vanish under refinement; the exact
    per-cell algebra makes it identically zero (to rounding) for
    f(x) = x^2 on every path and grid.  ``compensator_closed`` weighs the
    curvature against the path model's ``bracket_coeffs``; a path with no
    model (read from a CSV) has none, so that column is NaN.
    """
    return _decompose(f, grid, g, mode="ito")


def tanaka_decompose(f: ScalarFn, grid: RiemannGrid, *, g=None) -> DecompositionReport:
    """Decomposition report keeping the residual as the increasing part A^c.

    ``g`` defaults to the right-derivative convention of the catalog; for
    f = |x| the curvature surrogate is 0, so the residual accumulates
    exactly the remainder terms of the zero-crossing cells (the local
    time).  A quick lower-bound scan of the second ratios over the path
    range is recorded in the notes.  As for :func:`ito_decompose`, a path
    with no model gets a NaN ``compensator_closed`` column.
    """
    report = _decompose(f, grid, g, mode="tanaka")
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
