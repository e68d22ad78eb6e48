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
order; no derivative is searched for numerically.  Where f'' is the
catalog's zero, as for ``abs`` and every other piecewise-linear catalog
function, the curvature cells and the closed-form column are +0.0 and are
filled, not computed, unless a squared move or a bracket increment is not
finite.

The closed-form bracket of the model, its ``bracket_coeffs``, is kept as
a separate oracle column (``compensator_closed``); the defect between
realized and closed-form bracket weighting is reported as a diagnostic,
never folded into the residual.  A path with no model (one read by
``SamplePath.from_csv``) has no closed form: that column and the defect
are NaN, and every other column is the same as for the simulated path.

A report is two things: its summary record and the inputs that rebuild
its columns.  The decomposition writes its cell terms, running sums and
identity gap into scratch arrays of the calling thread, kept and reused from
one call to the next, and takes from them the numbers of the record: the
extremes (``stats``), the final value of each column and the bracket
defect.  The first read of a column (or of ``series_csv``) runs the same
algebra again, into new arrays that the report keeps; they hold the bits
that the record's numbers were taken from.  f and its derivatives are
called on views of the scratch arrays, and must not keep them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .catalog import _zero
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
    for numerically.  Half of the catalog's ``_zero`` is ``_zero`` itself, which
    :func:`_terms` recognises.
    """
    if given is not None:
        return given, getattr(given, "label", "custom")
    fn = f.derivative(order)
    if fn is None:
        return None, ""
    if order == 1:
        return fn, f"D+{f.label}"
    half = fn if fn is _zero else (lambda x: 0.5 * np.asarray(fn(x), dtype=float))
    return half, f"half-D2{f.label}"


# ---------------------------------------------------------------------------
# per-thread scratch
# ---------------------------------------------------------------------------

# per thread: the float arrays, by name, that _decompose writes its cell terms, running
# sums and identity gap into, each as long as the longest call on the thread has asked
# for; every call overwrites what the one before it wrote
_scratch = threading.local()


def _scratch_array(name: str, n: int) -> np.ndarray:
    """The calling thread's scratch array ``name``, as a view of length ``n``."""
    arrays = getattr(_scratch, "arrays", None)
    if arrays is None:
        arrays = _scratch.arrays = {}
    arr = arrays.get(name)
    if arr is None or len(arr) < n:
        arr = arrays[name] = np.empty(n)
    return arr[:n]


def _new_array(name: str, n: int) -> np.ndarray:
    return np.empty(n)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _column(name: str):
    return property(lambda self: self._columns()[name],
                    doc=f"The ``{name}`` column, built on first read (see the class docstring).")


def _recorded(name: str):
    return property(lambda self: self._summary[name], doc=f"The summary's ``{name}``.")


# the columns that _terms writes besides the times; the first six, in this order, are the
# summary's "final"
_COLUMNS = ("lhs", "stochastic_integral", "compensator_term", "compensator_closed",
            "jump_term", "residual", "identity_gap", "jump_cell_residuals")


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

    A report is its summary record, the dict that :meth:`summary_dict`
    gives, built once when the report is made from the calling thread's
    scratch arrays, and the inputs that its columns are built from.
    ``applicable``, ``notes`` and ``stats`` read the record.  ``times``, the
    seven columns and ``jump_cell_residuals`` are read-only properties: the
    first read of a column runs the decomposition's algebra again on the
    grid, into new arrays that the report then keeps, bit for bit the arrays
    that the record's numbers were taken from.  A report that is not
    applicable has empty columns and empty ``stats``.
    """

    _summary: dict = field(repr=False)
    # (f, grid, g, tau) that the columns are built from; None when not applicable
    _inputs: tuple | None = field(repr=False)

    lhs = _column("lhs")
    stochastic_integral = _column("stochastic_integral")
    compensator_term = _column("compensator_term")
    compensator_closed = _column("compensator_closed")
    jump_term = _column("jump_term")
    residual = _column("residual")
    identity_gap = _column("identity_gap")
    jump_cell_residuals = _column("jump_cell_residuals")

    applicable = _recorded("applicable")
    notes = _recorded("notes")

    @property
    def stats(self) -> dict:
        """The summary's four ``max_*`` extremes, or {} when the report is not applicable."""
        return {k: v for k, v in self._summary.items() if k.startswith("max_")}

    def _columns(self) -> dict:
        # kept in __dict__, not a functools.cached_property: before Python 3.12 that holds
        # one lock for every report, so seed-pool threads would take turns at their CSVs
        columns = self.__dict__.get("_built")
        if columns is None:
            if self._inputs is None:
                columns = {name: np.array([]) for name in _COLUMNS}
            else:
                columns = _terms(*self._inputs, _new_array)
            self.__dict__["_built"] = columns
        return columns

    @property
    def times(self) -> np.ndarray:
        """The grid's times, gathered on first read."""
        times = self.__dict__.get("_times")
        if times is None:
            times = self.__dict__["_times"] = (np.array([]) if self._inputs is None
                                               else self._inputs[1].times)
        return times

    def summary_dict(self) -> dict:
        """The summary record, with its top level and its ``final`` fresh dicts."""
        return {k: dict(v) if k == "final" else v for k, v in self._summary.items()}

    def series_csv(self, fh) -> None:
        """Write the per-time CSV t, lhs, stoch_integral, compensator, jump_term, residual to ``fh``.

        Each field is the ``repr`` of the value as a Python float, fields are
        separated by "," and every line, the header's too, ends in "\\n".
        """
        _write_float_rows(fh, "t,lhs,stoch_integral,compensator,jump_term,residual",
                          [self.times, self.lhs, self.stochastic_integral,
                           self.compensator_term, self.jump_term, self.residual])


def _path_info(path: SamplePath) -> dict:
    return {
        "model": getattr(path.model, "label", "imported"),
        "seed": path.seed,
        "n_points": path.n_points,
        "n_jumps": int(len(path.jump_indices)),
    }


def _grid_info(grid: RiemannGrid, times: np.ndarray) -> dict:
    """The grid's scheme, param, cell count and mesh; ``times`` are the grid's times,
    ``path.times[grid.indices]``, so that they need not be gathered again."""
    return {"scheme": grid.scheme, "param": grid.param, "n_cells": len(grid) - 1,
            "mesh": _mesh(times)}


# ---------------------------------------------------------------------------
# cell-level decomposition
# ---------------------------------------------------------------------------


def _running_sums(col: np.ndarray) -> np.ndarray:
    """``col`` with its cells, at ``col[1:]``, replaced in place by their running sums,
    after a 0."""
    col[0] = 0.0
    np.cumsum(col[1:], out=col[1:])
    return col


def _zero_curvature(taufn, moves: np.ndarray, coeffs, tg: np.ndarray) -> bool:
    """Whether every curvature cell tau(a) (m - a)^2, and every cell of the closed form,
    is +0.0: tau is the catalog's zero, and no squared move and no increment of the
    bracket ``coeffs[0] * tg`` is NaN or infinite (0 * inf is NaN).  The bracket rises
    with t, so no increment exceeds its whole span."""
    if taufn is not _zero:
        return False
    lo, hi = float(np.min(moves, initial=0.0)), float(np.max(moves, initial=0.0))
    c = 0.0 if coeffs is None else float(coeffs[0])
    span = c * float(tg[-1]) - c * float(tg[0])
    return math.isfinite(lo * lo + hi * hi) and math.isfinite(span)


def _terms(f, grid, gfn, taufn, new) -> dict:
    """Every column of the decomposition along ``grid``, with ``times``, the grid's
    times, and ``jump_cell_residuals``.

    ``new(name, n)`` gives the float array of length n that the term ``name`` is
    written into: :func:`_new_array` when a report builds its columns,
    :func:`_scratch_array` when :func:`_decompose` takes a report's numbers.  The
    arrays are written in the same order either way, so the two give the same bits.
    """
    path, idx = grid.path, grid.indices
    n = len(idx) - 1
    # mode="clip" lets take write into out unbuffered; the grid's indices are in range
    x = np.take(path.values, idx, out=new("x", n + 1), mode="clip")
    tg = np.take(path.times, idx, out=new("times", n + 1), mode="clip")
    a = x[:-1]
    # the cells' continuous right values, and their jump sizes, None when no cell ends
    # at a jump
    if path.pre_values is path.values:
        m = x[1:]
    else:
        m = np.take(path.pre_values, idx[1:], out=new("m", n), mode="clip")
    d = None
    if len(path.jump_indices):
        d = path.jump_size_at()[idx[1:]]
        if not np.any(d != 0.0):
            d = None

    # f once at the grid points; a cell's left limit is its right value bit for bit
    # unless the cell ends at a jump (or the path's left limits differ from its values)
    fx = np.asarray(f(x), dtype=float)
    fa, fb = fx[:-1], fx[1:]
    same = (path.pre_values is path.values
            or np.array_equal(m.view(np.int64), x[1:].view(np.int64)))
    fm = fb if same else np.asarray(f(m), dtype=float)

    # each running-sum column holds its cells at [1:] until they are summed in place
    stoch = new("stochastic_integral", n + 1)
    comp = new("compensator_term", n + 1)
    resid = new("residual", n + 1)
    stoch_cells, comp_cells, resid_cells = stoch[1:], comp[1:], resid[1:]
    # per cell g(X_-) Delta X, split exactly at jump times: the continuous move m - a is
    # weighted by g at the cell's left point a, and the jump displacement d by g at the
    # left limit m, so a jump contributes g(X_{s-}) Delta X_s
    moves = np.subtract(m, a, out=comp_cells)
    np.multiply(np.asarray(gfn(a), dtype=float), moves, out=stoch_cells)
    coeffs = getattr(path.model, "bracket_coeffs", None)
    # where tau is 0 the curvature cells and their sums are +0.0, and are not computed
    flat = _zero_curvature(taufn, moves, coeffs, tg)
    np.subtract(fm, fa, out=resid_cells)
    resid_cells -= stoch_cells
    if flat:
        comp.fill(0.0)
    else:
        ta = np.asarray(taufn(a), dtype=float)
        # the curvature cells tau(a) (m - a)^2, in place of the moves
        np.square(moves, out=comp_cells)
        np.multiply(ta, comp_cells, out=comp_cells)
        resid_cells -= comp_cells

    jump = new("jump_term", n + 1)
    if d is None:
        jump.fill(0.0)
        jump_cell_residuals = np.array([])
    else:
        jump_mask = d != 0.0
        stoch_jump = np.where(jump_mask, np.asarray(gfn(m), dtype=float) * d, 0.0)
        jump[1:] = np.where(jump_mask, fb - fm - stoch_jump, 0.0)
        _running_sums(jump)
        jump_cell_residuals = resid_cells[jump_mask]
        stoch_cells += stoch_jump

    lhs = np.subtract(fx, fx[0], out=new("lhs", n + 1))
    for col in (stoch, resid) if flat else (stoch, comp, resid):
        _running_sums(col)

    # the closed-form bracket <X^c>_t = cont_coeff t, absent for a path with no model;
    # the bracket at the grid times is held in the gap's array until the gap is summed
    gap = new("identity_gap", n + 1)
    closed = new("compensator_closed", n + 1)
    if coeffs is None:
        closed.fill(np.nan)
    elif flat:
        closed.fill(0.0)
    else:
        bracket = np.multiply(coeffs[0], tg, out=gap)
        np.subtract(bracket[1:], bracket[:-1], out=closed[1:])
        np.multiply(ta, closed[1:], out=closed[1:])
        _running_sums(closed)

    # the closure defect, summed in the order ((stoch + comp) + jump) + resid
    np.add(stoch, comp, out=gap)
    gap += jump
    gap += resid
    np.subtract(lhs, gap, out=gap)
    np.abs(gap, out=gap)

    return {"times": tg, "lhs": lhs, "stochastic_integral": stoch,
            "compensator_term": comp, "compensator_closed": closed, "jump_term": jump,
            "residual": resid, "identity_gap": gap,
            "jump_cell_residuals": jump_cell_residuals}


def _decompose(f, grid, g, mode) -> DecompositionReport:
    path = grid.path
    gfn, g_label = _resolve_derivative(f, 1, g)
    taufn, tau_label = _resolve_derivative(f, 2)
    if gfn is None or taufn is None:
        order = "first" if gfn is None else "second"
        return DecompositionReport(_summary={
            "mode": mode, "f": f.label, "applicable": False, "path": _path_info(path),
            "grid": _grid_info(grid, grid.times),
            "notes": {"reason": f"f declares no {order} derivative"}}, _inputs=None)

    terms = _terms(f, grid, gfn, taufn, _scratch_array)
    resid, jumps = terms["residual"], terms["jump_cell_residuals"]
    n = len(resid) - 1
    # one scratch array holds each temporary of the extremes in turn, each read before the
    # next one overwrites it
    work = _scratch_array("stats", n + 1)
    least_incr = float(np.min(np.subtract(resid[1:], resid[:-1], out=work[:n]))) if n else 0.0
    max_abs_residual = float(np.max(np.abs(resid, out=work)))
    defect = np.subtract(terms["compensator_term"], terms["compensator_closed"], out=work)
    bracket_defect = float(np.max(np.abs(defect, out=defect)))
    coeffs = getattr(path.model, "bracket_coeffs", None)
    return DecompositionReport(_summary={
        "mode": mode, "f": f.label, "g": g_label, "applicable": True,
        "path": _path_info(path), "grid": _grid_info(grid, terms["times"]),
        "final": {name: float(terms[name][-1]) for name in _COLUMNS[:-2]},
        # the extremes that the CLI grades, each an upper bound's value; absent ones read 0.
        # max_residual_decrease is minus the least residual increment, at most 0 when the
        # residual never decreases
        "max_abs_residual": max_abs_residual,
        "max_identity_gap": float(np.max(terms["identity_gap"])),
        # 0.0 - x, not -x, so that a least increment of 0.0 reads 0.0, not -0.0
        "max_residual_decrease": 0.0 - least_incr,
        "max_jump_cell_residual": float(np.max(np.abs(jumps))) if len(jumps) else 0.0,
        "bracket_defect": bracket_defect,
        "notes": {"tau": tau_label, "bracket": None if coeffs is None else
                  {"cont_coeff": coeffs[0], "jump_coeff": coeffs[1]}},
    }, _inputs=(f, grid, gfn, taufn))


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
