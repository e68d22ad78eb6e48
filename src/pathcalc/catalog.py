"""Built-in catalog of scalar functions addressable by name from configs.

Derivative entries are the a.e. derivatives with the right-continuous
convention at kinks (``sign(0) = +1``), which is the version the
decomposition code uses for the integrand g and the curvature surrogate.
"""

from __future__ import annotations

import numpy as np

from .functional import ScalarFn
from .paths import _REQUIRED, _real, _reals, _resolve_keys

__all__ = ["make_scalar_fn", "list_catalog", "sign_rc", "CATALOG_NAMES"]


def sign_rc(x):
    """Right-continuous sign: -1 for x < 0, +1 for x >= 0."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def _step_rc(x):
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _abs_fn(label: str) -> ScalarFn:
    return ScalarFn(label=label, fn=np.abs, derivatives={1: sign_rc, 2: _zero}, convex=True)


def _square() -> ScalarFn:
    return ScalarFn(
        label="square", fn=lambda x: np.asarray(x, dtype=float) ** 2,
        derivatives={1: lambda x: 2.0 * np.asarray(x, dtype=float), 2: lambda x: 2.0 * _one(x)},
        convex=True,
    )


def _cube() -> ScalarFn:
    return ScalarFn(
        label="cube", fn=lambda x: np.asarray(x, dtype=float) ** 3,
        derivatives={1: lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
                     2: lambda x: 6.0 * np.asarray(x, dtype=float)},
    )


def _x_abs_x_half() -> ScalarFn:
    return ScalarFn(
        label="x_abs_x_half",
        fn=lambda x: np.asarray(x, dtype=float) * np.abs(x) / 2.0,
        derivatives={1: np.abs, 2: sign_rc},
    )


def _sign() -> ScalarFn:
    return ScalarFn(label="sign", fn=sign_rc, derivatives={1: _zero})


def _identity() -> ScalarFn:
    return ScalarFn(
        label="identity", fn=lambda x: np.asarray(x, dtype=float),
        derivatives={1: _one, 2: _zero},
        convex=True,
    )


def _relu() -> ScalarFn:
    return ScalarFn(
        label="relu", fn=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
        derivatives={1: _step_rc, 2: _zero},
        convex=True,
    )


def _cos() -> ScalarFn:
    return ScalarFn(
        label="cos", fn=np.cos,
        derivatives={1: lambda x: -np.sin(x), 2: lambda x: -np.cos(x)},
    )


def _piecewise_linear(breakpoints, slopes, y0: float) -> ScalarFn:
    """Continuous piecewise-linear f with f(0) = y0.

    ``slopes`` has one more entry than ``breakpoints``; slope i applies on
    [b_i, b_{i+1}).  Convex exactly when the slopes are nondecreasing.
    """
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    if bp.ndim != 1 or sl.ndim != 1 or len(sl) != len(bp) + 1:
        raise ValueError("need len(slopes) == len(breakpoints) + 1")
    if len(bp) and np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")

    def _slope_integral_from_zero(x: float) -> float:
        lo, hi = (x, 0.0) if x < 0 else (0.0, x)
        inner = bp[(bp > lo) & (bp < hi)]
        edges = np.concatenate(([lo], inner, [hi]))
        segs = np.searchsorted(bp, (edges[:-1] + edges[1:]) / 2, side="right")
        val = float(np.sum(sl[segs] * np.diff(edges)))
        return val if x >= 0 else -val

    knot_vals = np.array([y0 + _slope_integral_from_zero(float(v)) for v in bp])

    def _anti(x):
        x = np.asarray(x, dtype=float)
        if len(bp) == 0:
            return y0 + sl[0] * x
        seg = np.searchsorted(bp, x, side="right")
        anchor_idx = np.maximum(seg - 1, 0)
        return knot_vals[anchor_idx] + sl[seg] * (x - bp[anchor_idx])

    def _deriv(x):
        x = np.asarray(x, dtype=float)
        return sl[np.searchsorted(bp, x, side="right")]

    return ScalarFn(
        label=f"piecewise_linear[{','.join(str(v) for v in bp)}]",
        fn=_anti,
        derivatives={1: _deriv, 2: _zero},
        convex=bool(np.all(np.diff(sl) >= 0)),
    )


# name -> (builder, description)
_CATALOG = {
    "abs": (lambda: _abs_fn("abs"), "|x|, convex, Lipschitz 1"),
    "square": (_square, "x^2"),
    "cube": (_cube, "x^3"),
    "x_abs_x_half": (_x_abs_x_half, "x|x|/2, primitive of |x|"),
    "sign_primitive": (lambda: _abs_fn("sign_primitive"), "primitive of sign (equals |x|)"),
    "sign": (_sign, "right-continuous sign, -1/+1"),
    "identity": (_identity, "x"),
    "relu": (_relu, "max(x, 0), convex"),
    "cos": (_cos, "cos(x)"),
    "piecewise_linear": (_piecewise_linear, "continuous piecewise linear, f(0) = y0"),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))

# the parameters of each builder that takes some: name -> {parameter: (type, default)}
_PARAMETERS = {
    "piecewise_linear": {"breakpoints": (_reals, _REQUIRED), "slopes": (_reals, _REQUIRED),
                         "y0": (_real, 0.0)},
}


def make_scalar_fn(name: str, **params) -> ScalarFn:
    """Build a catalog function by name; raises ``ValueError`` for an unknown name and for
    an unknown, missing or mistyped parameter."""
    if not isinstance(name, str) or name not in _CATALOG:
        raise ValueError(f"unknown catalog function {name!r}; known: {CATALOG_NAMES}")
    keys = _PARAMETERS.get(name, {})
    return _CATALOG[name][0](**_resolve_keys(params, keys, f"catalog function {name!r}"))


def list_catalog():
    """Names and one-line descriptions of the built-in scalar functions."""
    return {name: desc for name, (_, desc) in _CATALOG.items()}
