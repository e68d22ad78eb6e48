"""Term-by-term verification of Ito/Tanaka-style decompositions along paths.

For a scalar f with a.e. derivative g, each grid cell splits the increment
of f(X) exactly into a left-point stochastic-integral part, a curvature
part tau(X) d[X^c] with tau = f''/2 evaluated against the realized squared
continuous moves, a jump part, and a residual.  The residual is the
estimator of the continuous increasing process A^c: it vanishes
identically for f(x) = x^2 (per-cell algebra), tends to zero under
refinement for functions with bounded second ratios, and recovers the
local time for f = |x|.

g and f'' are the derivatives that f declares (a g passed in wins over
the declared one).  An f that declares no derivative of an order needed
gets a report that is not applicable, whose ``notes.reason`` names that
order; no derivative is searched for numerically.

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

import numpy as np

from .errors import ResolutionExhaustedError
from .functional import ScalarFn
from .paths import SamplePath, _write_float_rows
from .riemann import RiemannGrid, _mesh

__all__ = [
    "DecompositionReport",
    "ito_decompose",
    "tanaka_decompose",
    "occupation_local_time",
]


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _resolve_derivative(f: ScalarFn, order: int, given=None):
    """Callable and label for g = f' (order 1) or tau = f''/2 (order 2).

    A ``given`` callable wins; else the derivative that f declares.  Returns
    (None, "") when f declares none of that order: no derivative is searched
    for numerically.
    """
    if given is not None:
        return given, getattr(given, "label", "custom")
    fn = f.derivative(order)
    if fn is None:
        return None, ""
    if order == 1:
        return fn, f"D+{f.label}"
    return (lambda x: 0.5 * np.asarray(fn(x), dtype=float)), f"half-D2{f.label}"


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
        grid_info=_grid_info(grid, grid.times), times=empty, lhs=empty,
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


def _grid_info(grid: RiemannGrid, times: np.ndarray) -> dict:
    """The grid's scheme, param, cell count and mesh; ``times`` are the grid's times,
    ``path.times[grid.indices]``, so that :attr:`RiemannGrid.mesh` need not gather them
    again."""
    return {"scheme": grid.scheme, "param": grid.param, "n_cells": len(grid) - 1,
            "mesh": _mesh(times)}


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
    x = path.values[idx]
    return x, x[1:] if path.pre_values is path.values else path.pre_values[j], d


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
    gfn, g_label = _resolve_derivative(f, 1, g)
    if gfn is None:
        return _not_applicable(mode, f, grid, "f declares no first derivative")
    taufn, tau_label = _resolve_derivative(f, 2)
    if taufn is None:
        return _not_applicable(mode, f, grid, "f declares no second derivative")

    x, m, d = _cells(grid)
    a = x[:-1]
    tg = path.times[grid.indices]
    # f once at the grid points; a cell's left limit is its right value bit for bit
    # unless the cell ends at a jump (or the path's left limits differ from its values)
    fx = np.asarray(f(x), dtype=float)
    fa, fb = fx[:-1], fx[1:]
    same = (path.pre_values is path.values
            or np.array_equal(m.view(np.int64), x[1:].view(np.int64)))
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
        path_info=_path_info(path), grid_info=_grid_info(grid, tg),
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
    time).  As for :func:`ito_decompose`, a path with no model gets a NaN
    ``compensator_closed`` column.
    """
    return _decompose(f, grid, g, mode="tanaka")


# ---------------------------------------------------------------------------
# occupation-time oracle
# ---------------------------------------------------------------------------


def occupation_local_time(path: SamplePath, a: float, eps: float) -> float:
    """(1 / 2 eps) x time the linearly interpolated path spends in (a-eps, a+eps).

    Exact for piecewise-linear paths; jump displacements occupy zero time.
    Raises ``ValueError`` when eps is not > 0 or a is NaN, and
    :class:`ResolutionExhaustedError` when eps is below the median absolute
    continuous move of the path.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if a != a:
        raise ValueError(f"level a must not be NaN, got {a}")
    median_move = path.median_continuous_move()
    if eps < median_move:
        raise ResolutionExhaustedError(
            f"eps={eps} is below the median continuous move {median_move:.3g}"
        )
    p = path.values[:-1]
    q = path.pre_values[1:]
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    band_lo, band_hi = a - eps, a + eps
    # a cell wholly below or wholly above the band adds +0.0 by the rule below, so it
    # is skipped; a NaN band edge (a and eps infinite) skips none
    cells = np.flatnonzero(~((hi < band_lo) | (lo > band_hi)))
    lo, hi = lo[cells], hi[cells]
    overlap = np.minimum(hi, band_hi) - np.maximum(lo, band_lo)
    flat = hi == lo
    frac = np.where(
        flat,
        ((lo > band_lo) & (lo < band_hi)).astype(float),
        np.clip(overlap, 0.0, None) / np.where(flat, 1.0, hi - lo),
    )
    # the full-length array keeps the order of the sum over all cells
    weighted = np.zeros(len(p))
    weighted[cells] = (path.times[cells + 1] - path.times[cells]) * frac
    return float(np.sum(weighted)) / (2 * eps)
