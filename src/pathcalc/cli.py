"""Batch experiment runner: ``run`` a JSON config, ``replay`` persisted
reports, or list the ``catalog``.

Output layout per run: ``<out>/<kind>/<seed>/report.json`` per seed (one per
path, one per (process, Y) pair for compensator, the base seed alone for
summability, taylor and independence), beside it ``paths.csv`` and
``decomposition.csv`` when paths persist, with ``aggregate.json`` and a
one-page ``summary.txt`` at the experiment level.  Paths persist for the qv,
ito and tanaka kinds by the config key ``write_paths``: ``true``,
``false``, or ``"auto"`` (the default), which writes them when ``n_paths``
is at most 64; any other value is a config error.  Every JSON file is
strict JSON: a number that is not finite is written as ``null``, and a
check whose value is ``null`` FAILs.  The docstrings of
``SamplePath.to_csv`` and ``DecompositionReport.series_csv`` state the
bytes of the two CSV files.
Aggregates are byte-identical across reruns of the same config and seed,
whatever the thread count: workers fan out across seeds on one pool of
``PATHCALC_THREADS`` threads (by default the usable CPUs, up to 8) and write
their own files; a compensator run fans out its (process, Y) pairs, each
with its own seed, and runs its martingale check and negative control after
them.  The coordinator aggregates in fixed seed order, writing once.

Each kind's config keys, with the type and default of each key, are
declared once, in ``_COMMON`` and ``_KEYS`` below, and only in the kinds
that read them: ``n_paths`` and ``T`` in qv, ito, tanaka, compensator and
independence, ``write_paths`` in qv, ito and tanaka, and ``local_time``
and ``tolerances.local_time_rel`` in tanaka alone.  ``_load_config``
checks a config against them and resolves it before any output directory
exists, and the runners read only the resolved values; ``aggregate.json``
records the config as written, with the defaults of the ``_RECORDED`` keys
that the kind declares.  Refinement lists run from coarse to fine:
``levels`` strictly increasing, ``hitting_eps`` strictly decreasing.  Each
override sets the key that it names: ``--seed`` ``base_seed``, ``--paths``
``n_paths``, ``--out`` ``out_dir``, and ``--level`` ``level``, or
``levels`` as ``[level]``.  An unknown key, a missing required key, a value
of the wrong type, a NaN or Infinity anywhere in the config, an override on
a kind that does not declare its key (``--paths`` on summability), or a
``PATHCALC_THREADS`` that is not a positive integer is a config error.  A
config error prints ``config error: …`` and exits 2.  Once a runner has
started, only a plain ``ValueError`` (an argument the library rejects, see
``errors.py``) or a ``ResolutionExhaustedError`` is reported as a config
error; any other exception is a fault of the program and propagates.

``replay`` grades every recorded check again against its recorded bound, so
acceptance stays auditable after the fact.  A check with a ``recompute``
rule (every qv, ito, tanaka and summability check) takes its value from the
per-seed reports through the :data:`STATS` entry that graded the run, so an
edited report number changes the verdict; the compensator, independence and
taylor checks are graded on the value that ``aggregate.json`` recorded.  It
checks the fields of every check and report that it reads; a malformed
aggregate or report (a recompute rule with no per-seed report to read among
them) prints ``error: …`` and exits 2, and any other exception is a fault of
the program and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import compensator as comp_mod
from .catalog import _PARAMETERS, list_catalog, make_scalar_fn
from .decompose import (
    BracketModel,
    ito_decompose,
    occupation_local_time,
    tanaka_decompose,
)
from .errors import ResolutionExhaustedError, SchemaError
from .functional import (
    Partition,
    ScalarFn,
    increment_fn,
    partition_sum,
    squared_increment,
    summability_limit,
    taylor_check,
)
from .paths import (
    _LAWS,
    _MODELS,
    _REQUIRED,
    _is_real,
    _real,
    _resolve_keys,
    model_from_dict,
    realized_qv,
    seeded_rng,
    simulate,
)
from .riemann import dyadic_grid, limit_in_probability

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config keys: each kind's keys, with the type and default of each, declared once
# ---------------------------------------------------------------------------


def _as_given(value, name):
    return value


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _typed(accepts, what: str):
    """A type that takes a value as written when ``accepts(value)``; ``what`` names such values."""
    def check(value, name: str):
        if not accepts(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return value
    return check


_int = _typed(_is_int, "an integer")
_count = _typed(lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_flag = _typed(lambda v: isinstance(v, bool), "true or false")
_text = _typed(lambda v: isinstance(v, str), "a string")
_write_paths = _typed(lambda v: isinstance(v, bool) or v == "auto", 'true, false or "auto"')


# refinement lists run from coarse to fine: the checks read the last entry as the finest
_levels = _typed(lambda v: isinstance(v, list) and v and all(_is_int(x) and x >= 0 for x in v)
                 and all(a < b for a, b in zip(v, v[1:])),
                 "a non-empty list of integers >= 0, strictly increasing")
_eps_list = _typed(lambda v: isinstance(v, list) and v
                   and all(_is_real(x) and math.isfinite(x) and x > 0 for x in v)
                   and all(a > b for a, b in zip(v, v[1:])),
                   "a non-empty list of finite numbers > 0, strictly decreasing")


def _level(value, name: str) -> int:
    if _int(value, name) < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _hitting_eps(value, name: str) -> list:
    return [float(x) for x in _eps_list(value, name)]


def _is_band(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_real, value))


# kept as written, not made floats: the check's name prints the band
_band = _typed(_is_band, "a list [lo, hi] of two numbers")


def _model(value, name: str):
    return model_from_dict(value)


def _function(value, name: str) -> ScalarFn:
    """A catalog function from its entry: its ``name`` and its builder's parameters."""
    if not (isinstance(value, dict) and "name" in value):
        raise ValueError(f"{name} must be an object with a catalog function name, got {value!r}")
    return make_scalar_fn(value["name"], **{k: v for k, v in value.items() if k != "name"})


def _functions(value, name: str) -> list:
    if not (isinstance(value, list) and value):
        raise ValueError(f"{name} must be a non-empty list of catalog function names, "
                         f"got {value!r}")
    return [make_scalar_fn(v) for v in value]


def _taylor_entries(value, name: str) -> list:
    if not (isinstance(value, list) and value):
        raise ValueError(f"{name} must be a non-empty list of expansions, got {value!r}")
    return [_resolve_keys(e, _TAYLOR_ENTRY, f"{name}[{i}]") for i, e in enumerate(value)]


def _qv_band(cfg) -> list:
    """Within 5% of the closed-form E[QV_T] = <X>_T of the model."""
    expected = float(BracketModel.from_model(cfg["model"]).total_at(cfg["T"]))
    return [0.95 * expected, 1.05 * expected]


_TAYLOR_ENTRY = {"function": (_function, _REQUIRED), "a": (_real, _REQUIRED),
                 "b": (_real, _REQUIRED), "k": (_int, _REQUIRED)}

# the kinds that simulate paths: how many (per pair, for compensator) and over [0, T]
_PATHS = {"n_paths": (_count, 1), "T": (_real, 1.0)}

# the kinds that simulate one path per seed, and may write it (see the module docstring)
_SEED_PATHS = {**_PATHS, "write_paths": (_write_paths, "auto")}

_LEVELS = {
    "levels": (_levels, [8, 10, 12]),
    "n_steps": (_int, lambda cfg: 2 ** (max(cfg["levels"]) + 2)),
}


def _decomposition_keys(residual: float, **tolerances) -> dict:
    return {
        "model": (_model, _REQUIRED),
        **_SEED_PATHS,
        "function": (_function, _REQUIRED),
        "g": (_function, None),
        "level": (_level, 12),
        "n_steps": (_int, lambda cfg: 2 ** min(cfg["level"] + 2, 18)),
        "negative_control": ({"corrupt_g_sign": (_flag, False)}, {}),
        "tolerances": ({"residual": (_real, residual), **tolerances,
                        "identity_gap": (_real, 1e-8)}, {}),
    }


# the keys of every kind (see _resolve_keys for the form of a declaration)
_COMMON = {
    "schema_version": (_as_given, _REQUIRED),
    "kind": (_as_given, _REQUIRED),
    "out_dir": (_text, "pathcalc_out"),
    "base_seed": (_int, 0),
}

# each kind's own keys; a kind's config accepts these and _COMMON's, and nothing else
_KEYS = {
    "summability": {
        "functions": (_functions, ["abs", "square", "cube", "x_abs_x_half"]),
        "n_draws": (_count, 1000),
        "tolerances": ({"limit": (_real, 1e-4), "exact": (_real, 1e-10)}, {}),
    },
    "taylor": {
        "entries": (_taylor_entries, [
            {"function": {"name": "square"}, "a": 0.0, "b": 2.0, "k": 2},
            {"function": {"name": "cube"}, "a": 0.0, "b": 1.0, "k": 3},
            {"function": {"name": "x_abs_x_half"}, "a": 0.0, "b": 1.0, "k": 2},
        ]),
        "tolerances": ({"identity_gap": (_real, 1e-8)}, {}),
    },
    "qv": {
        "model": (_model, _REQUIRED),
        **_SEED_PATHS,
        **_LEVELS,
        "tolerances": ({"qv_band": (_band, _qv_band)}, {}),
    },
    "ito": _decomposition_keys(residual=1e-8),
    # only a Tanaka run grades the residual of its jump cells on its own (an Ito run grades
    # the whole residual), and only a Tanaka residual can be a local time (Ito's, of a C^2
    # function, is about 0)
    "tanaka": {**_decomposition_keys(residual=1e-6, jump=(_real, 1e-3),
                                     local_time_rel=(_real, 0.10)),
               "local_time": ({"level": (_real, 0.0), "eps": (_real, _REQUIRED)}, None)},
    "compensator": {
        # the compensator's paired Monte Carlo, graded at 3 SE, needs many paths
        **_PATHS, "n_paths": (_count, 10_000),
        "negative_control": ({"rate_factor": (_real, 1.5)}, {}),
    },
    "independence": {
        "model": (_model, _REQUIRED),
        **_PATHS,
        **_LEVELS,
        "hitting_eps": (_hitting_eps, [2**-4, 2**-5, 2**-6]),
        "tolerances": ({"eps": (_real, 0.05), "delta": (_real, 0.05)}, {}),
    },
}
KINDS = tuple(_KEYS)

# the keys whose defaults aggregate.json records when the kind declares them and the
# config leaves them out
_RECORDED = ("base_seed", "n_paths", "T", "tolerances", "write_paths")

# each CLI override and the keys that it may set, the first that the kind declares
_OVERRIDES = {"seed": ("base_seed",), "paths": ("n_paths",), "out": ("out_dir",),
              "level": ("level", "levels")}


def _load_config(path: str, overrides) -> tuple[dict, dict]:
    """The config at ``path`` with the CLI ``overrides``, checked against its kind's keys.

    Returns the config as ``aggregate.json`` records it (as written, with the
    overrides and the defaults of :data:`_RECORDED`) and the resolved config
    that the runner reads: every key of the kind, of its declared type, with
    models and catalog functions built and ``write_paths`` true or false.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    if _finite_json(raw) != raw:
        raise ValueError("config must hold only finite numbers: NaN and Infinity are not JSON")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"config schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValueError(f"config kind must be one of {KINDS}, got {kind!r}")
    keys = {**_COMMON, **_KEYS[kind]}
    for flag, targets in _OVERRIDES.items():
        value = getattr(overrides, flag)
        if value is None:
            continue
        key = next((k for k in targets if k in keys), None)
        if key is None:
            raise ValueError(f"--{flag} does not apply to the {kind} kind")
        raw[key] = [value] if key == "levels" else value
    recorded = {**{k: keys[k][1] for k in _RECORDED if k in keys}, **raw}
    cfg = _resolve_keys(raw, keys, f"the {kind} config")
    if cfg.get("write_paths") == "auto":
        cfg["write_paths"] = cfg["n_paths"] <= 64
    return recorded, cfg


def _threads() -> int:
    """The seed pool's size: ``PATHCALC_THREADS``, or, when it is unset, the CPUs this
    process may run on (its affinity mask where the platform has one) up to 8."""
    env = os.environ.get("PATHCALC_THREADS")
    if not env:
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        return min(8, usable)
    if not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"PATHCALC_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _finite_json(obj):
    """``obj`` with each float that is not finite, Python or numpy, replaced by ``None``."""
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as strict JSON, a float that is not finite as ``null``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_finite_json(obj), sort_keys=True, indent=2, allow_nan=False)
                    + "\n")


def _seed_file(seed, name: str = "report.json") -> str:
    """Where a seed's file lives, relative to the kind directory (see the module docstring)."""
    return f"{seed}/{name}"


def _write_seed(kind_dir: Path, seed, report: dict, files=()) -> None:
    """Write a seed's report, then each ``(name, write)`` of ``files`` by ``write(fh)``."""
    _write_json(kind_dir / _seed_file(seed), report)
    for name, write in files:
        with open(kind_dir / _seed_file(seed, name), "w") as fh:
            write(fh)


def _map_seeds(cfg, worker):
    """``worker(seed)`` on the pool for the ``n_paths`` seeds from ``base_seed`` on; returns
    the seeds and the results, both in seed order."""
    seeds = [cfg["base_seed"] + i for i in range(cfg["n_paths"])]
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        results = list(pool.map(worker, seeds))
    return seeds, results


CHECK_OPS = {
    "le": lambda v, b: v <= b,
    "in": lambda v, b: b[0] <= v <= b[1],
    "true": lambda v, b: bool(v) is True,
}


def _check(name, value, op, bound) -> dict:
    """A graded check.  A value that is a number but not finite is recorded as ``None``
    (``null`` in JSON), and a ``None`` value FAILs."""
    if _is_real(value) and not math.isfinite(value):
        value = None
    return {
        "name": name,
        "value": value,
        "op": op,
        "bound": bound,
        "passed": value is not None and bool(CHECK_OPS[op](value, bound)),
    }


def _recomputed_check(name, rule, seed_rows, op, bound) -> dict:
    """A check whose value is the statistic ``rule`` of the per-seed rows.

    The rule is stored with the check, and ``replay`` recomputes the value
    from the persisted rows through the same :data:`STATS` entry.
    """
    return {**_check(name, _replay_value(rule, seed_rows), op, bound), "recompute": rule}


# ---------------------------------------------------------------------------
# named statistics over per-seed rows (shared by run and replay)
# ---------------------------------------------------------------------------


def _dig(row: dict, dotted: str):
    """The number (or bool) at a dotted key path of a per-seed row.

    A missing key, a ``null`` and a number that is not finite all read as
    inf: the seed has no such number (say, an inapplicable report), so the
    statistic fails any upper bound.  A path through something other than an
    object, or to something other than a number, is a :class:`SchemaError`.
    """
    cur = row
    for part in dotted.split("."):
        if not isinstance(cur, dict):
            raise SchemaError(f"{dotted!r} of a per-seed report runs through {cur!r}")
        if part not in cur:
            return float("inf")
        cur = cur[part]
    if cur is None or (_is_real(cur) and not math.isfinite(cur)):
        return float("inf")
    if not isinstance(cur, numbers.Real):
        raise SchemaError(f"{dotted!r} of a per-seed report is {cur!r}, not a number")
    return cur


def _rule_field(rule: dict, name: str, accepts, what: str):
    """The field ``name`` of a recompute rule; a :class:`SchemaError` unless it is ``what``."""
    if not accepts(rule.get(name)):
        raise SchemaError(f"recompute rule {rule!r} needs {name!r} to be {what}")
    return rule[name]


def _column(rule, rows) -> list:
    """The value at the rule's ``key`` in each row (see :func:`_dig`)."""
    key = _rule_field(rule, "key", lambda v: isinstance(v, str), "a string")
    return [_dig(r, key) for r in rows]


def _diff_decreasing(rule, rows) -> bool:
    """Mean |S_k - S_(k+1)| over seeds does not grow along ``keys`` (5% slack)."""
    keys = _rule_field(rule, "keys", lambda v: isinstance(v, list)
                       and all(isinstance(k, str) for k in v), "a list of strings")
    diffs = [
        float(np.mean([abs(_dig(r, a) - _dig(r, b)) for r in rows]))
        for a, b in zip(keys[:-1], keys[1:])
    ]
    return all(d2 <= d1 * 1.05 + 1e-12 for d1, d2 in zip(diffs[:-1], diffs[1:]))


def _mean_rel_err(rule, rows) -> float:
    """Per-seed |a_c_final - oracle| / oracle, averaged over the seeds that have
    a ``rule["key"]`` entry; inf when none has."""
    key = _rule_field(rule, "key", lambda v: isinstance(v, str), "a string")
    entries = [r[key] for r in rows if key in r]
    if not all(isinstance(e, dict) and _is_real(e.get("a_c_final")) and _is_real(e.get("oracle"))
               for e in entries):
        raise SchemaError(f"a {key!r} entry needs the numbers a_c_final and oracle")
    rels = [abs(e["a_c_final"] - e["oracle"]) / max(e["oracle"], 1e-12) for e in entries]
    return float(np.mean(rels)) if rels else float("inf")


STATS = {
    "max": lambda rule, rows: max(_column(rule, rows)),
    "mean": lambda rule, rows: float(np.mean(_column(rule, rows))),
    "diff_decreasing": _diff_decreasing,
    "mean_rel_err": _mean_rel_err,
}


def _replay_value(rule, seed_rows):
    if not isinstance(rule, dict):
        raise SchemaError(f"a recompute rule must be an object, got {rule!r}")
    stat = rule.get("stat")
    if not (isinstance(stat, str) and stat in STATS):
        raise SchemaError(f"unknown recompute stat {stat!r}")
    return STATS[stat](rule, seed_rows)


def _verdicts(checks, summary_path=None) -> int:
    """Print the check lines and the overall line (and write them to ``summary_path``)."""
    lines = [f"{c['name']}: {'PASS' if c['passed'] else 'FAIL'} "
             f"(value={c['value']!r}, {c['op']} {c['bound']!r})" for c in checks]
    ok = all(c["passed"] for c in checks)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    if summary_path is not None:
        summary_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


def _finish(recorded, kind_dir: Path, checks, seeds) -> int:
    aggregate = {
        "schema_version": SCHEMA_VERSION,
        "kind": recorded["kind"],
        "config": recorded,
        "checks": checks,
        "per_seed": {str(s): _seed_file(s) for s in seeds},
    }
    _write_json(kind_dir / "aggregate.json", aggregate)
    return _verdicts(checks, kind_dir / "summary.txt")


# ---------------------------------------------------------------------------
# experiment runners: each returns its checks and the seeds that have a report
# ---------------------------------------------------------------------------


def _map_paths(cfg, kind_dir: Path, evaluate):
    """Per seed in the pool, simulate a path of the model and write ``evaluate(path)``'s row
    and files."""

    def worker(seed: int) -> dict:
        path = simulate(cfg["model"], n_steps=cfg["n_steps"], T=cfg["T"], seed=seed)
        row, files = evaluate(path)
        row = {"seed": seed, **row}
        _write_seed(kind_dir, seed, row, files if cfg["write_paths"] else ())
        if cfg["write_paths"]:
            path.to_csv(kind_dir / _seed_file(seed, "paths.csv"))
        return row

    return _map_seeds(cfg, worker)


def _run_qv(cfg, kind_dir: Path):
    levels, band = cfg["levels"], cfg["tolerances"]["qv_band"]

    def evaluate(path):
        return {"qv": {str(lv): realized_qv(dyadic_grid(path, lv)) for lv in levels}}, ()

    seeds, rows = _map_paths(cfg, kind_dir, evaluate)
    checks = [
        _recomputed_check(f"E[QV]_{cfg['T']:g} in {band}",
                          {"stat": "mean", "key": f"qv.{levels[-1]}"}, rows, "in", band),
        _recomputed_check("cauchy_trace_decreasing",
                          {"stat": "diff_decreasing", "keys": [f"qv.{lv}" for lv in levels]},
                          rows, "true", True),
    ]
    return checks, seeds


# the rounding floor within which a report's identity gap may exceed its coarser reports'
_GAP_GROWTH = 1e-10


def _run_decomposition(mode, cfg, kind_dir: Path):
    f, g, level = cfg["function"], cfg["g"], cfg["level"]
    lt = cfg["local_time"] if mode == "tanaka" else None
    tols = cfg["tolerances"]
    coarser_levels = [lv for lv in (level - 2, level - 1) if lv >= 0]
    if cfg["negative_control"]["corrupt_g_sign"]:
        base_g = g.fn if g is not None else f.derivative(1)
        if base_g is None:
            raise ValueError("negative control needs a derivative to corrupt")
        g = ScalarFn(label="corrupted_g", fn=lambda x: -np.asarray(base_g(x), dtype=float))

    decompose = ito_decompose if mode == "ito" else tanaka_decompose

    def evaluate(path):
        bracket = BracketModel.from_model(cfg["model"])
        report = decompose(f, dyadic_grid(path, level), bracket, g=g)
        row = {"summary": report.summary_dict()}
        # an inapplicable report has none of these numbers, and each check then FAILs
        if report.applicable and coarser_levels:
            # the coarser reports read the same path, so they are applicable too
            coarser = [decompose(f, dyadic_grid(path, lv), bracket, g=g).stats["max_identity_gap"]
                       for lv in coarser_levels]
            row["identity_gap_growth"] = report.stats["max_identity_gap"] - max(coarser)
        if lt is not None and report.applicable:
            oracle = occupation_local_time(path, lt["level"], lt["eps"])
            row["local_time"] = {"a_c_final": float(report.residual[-1]), "oracle": oracle}
        return row, [("decomposition.csv", report.series_csv)]

    seeds, rows = _map_paths(cfg, kind_dir, evaluate)

    def at_most(name, key, bound):
        return _recomputed_check(name, {"stat": "max", "key": key}, rows, "le", bound)

    checks = [at_most("max_identity_gap", "summary.max_identity_gap", tols["identity_gap"])]
    if coarser_levels:
        checks.append(at_most("identity_gap_growth", "identity_gap_growth", _GAP_GROWTH))
    if mode == "ito":
        checks.insert(0, at_most("max_residual", "summary.max_abs_residual", tols["residual"]))
    else:
        checks += [
            at_most("max_residual_decrease", "summary.max_residual_decrease", tols["residual"]),
            at_most("max_jump_cell_residual", "summary.max_jump_cell_residual", tols["jump"]),
        ]
    if lt is not None:
        checks.append(_recomputed_check(
            "local_time_mean_rel_err", {"stat": "mean_rel_err", "key": "local_time"}, rows,
            "le", tols["local_time_rel"]))
    return checks, seeds


def _run_compensator(cfg, kind_dir: Path):
    n_paths, T = cfg["n_paths"], cfg["T"]
    models = comp_mod.catalog_models()
    pairs = [(model, y) for model in models for y in comp_mod.catalog_test_processes(T)]

    def worker(pair_seed: int) -> dict:
        model, y = pairs[pair_seed - cfg["base_seed"]]
        verdict = comp_mod.verify_compensator(model, y, n_paths=n_paths, T=T, seed=pair_seed)
        _write_seed(kind_dir, pair_seed, {"seed": pair_seed, "pair": verdict.to_json_dict()})
        return _check(f"{model.label} x {y.label}", abs(verdict.diff), "le", verdict.bound)

    # the pool's seeds are the pairs' seeds: one per (process, Y) pair
    seeds, checks = _map_seeds({**cfg, "n_paths": len(pairs)}, worker)
    pair_seed = seeds[-1] + 1
    mart = comp_mod.martingale_check(models[0], n_paths=n_paths,
                                     checkpoints=(0.0, T / 2, T), seed=pair_seed)
    checks.append(_check("martingale_increments", mart["passed"], "true", True))
    neg = comp_mod.verify_compensator(models[0], comp_mod.ConstantY(1.0), n_paths=n_paths,
                                      T=T, seed=pair_seed + 1,
                                      rate_factor=cfg["negative_control"]["rate_factor"])
    checks.append(_check("negative_control_fails", not neg.passed, "true", True))
    return checks, seeds


def _run_independence(cfg, kind_dir: Path):
    diag = limit_in_probability(
        squared_increment(), cfg["model"],
        schemes=[{"scheme": "dyadic", "params": cfg["levels"]},
                 {"scheme": "hitting", "params": cfg["hitting_eps"]}],
        n_paths=cfg["n_paths"], eps=cfg["tolerances"]["eps"], delta=cfg["tolerances"]["delta"],
        n_steps=cfg["n_steps"], T=cfg["T"], base_seed=cfg["base_seed"],
    )
    _write_seed(kind_dir, cfg["base_seed"], diag.to_json_dict())
    cross = max(diag.cross_tail.values())
    checks = [
        _check("cross_scheme_tail", cross, "le", diag.delta),
        _check("verdict", diag.verdict, "true", True),
    ]
    return checks, [cfg["base_seed"]]


def _run_summability(cfg, kind_dir: Path):
    rng = seeded_rng(cfg["base_seed"])
    fns = cfg["functions"]
    tol, exact_tol = cfg["tolerances"]["limit"], cfg["tolerances"]["exact"]

    worst = 0.0
    for _ in range(cfg["n_draws"]):
        f = fns[int(rng.integers(len(fns)))]
        a, b = sorted(rng.uniform(-2, 2, size=2))
        if b - a < 1e-3:
            continue
        pts = np.sort(rng.uniform(a, b, size=int(rng.integers(1, 32))))
        pts = pts[(pts > a) & (pts < b)]
        s = partition_sum(increment_fn(f), Partition(a, b, tuple(pts)))
        worst = max(worst, abs(s - (float(f(b)) - float(f(a)))))

    add_worst = 0.0
    for f in fns:
        F = increment_fn(f)
        a, b = -1.0, 1.0
        t = float(rng.uniform(a + 0.1, b - 0.1))
        whole = summability_limit(F, a, b, tol=tol)
        left = summability_limit(F, a, t, tol=tol)
        right = summability_limit(F, t, b, tol=tol)
        add_worst = max(add_worst, abs(whole.estimate - left.estimate - right.estimate))

    row = {"telescoping_max_error": worst, "additivity_max_error": add_worst}
    _write_seed(kind_dir, cfg["base_seed"], row)
    bounds = {"telescoping_max_error": exact_tol, "additivity_max_error": 2 * tol}
    checks = [_recomputed_check(name, {"stat": "max", "key": name}, [row], "le", bound)
              for name, bound in bounds.items()]
    return checks, [cfg["base_seed"]]


def _run_taylor(cfg, kind_dir: Path):
    gap_tol = cfg["tolerances"]["identity_gap"]
    checks = []
    rows = []
    for e in cfg["entries"]:
        f = e["function"]
        rep = taylor_check(increment_fn(f), e["a"], e["b"], e["k"], tol=gap_tol)
        rows.append(rep.to_dict())
        label = f"{f.label}[{e['a']},{e['b']}]k={e['k']}"
        checks.append(_check(f"{label} identity_gap", rep.identity_gap, "le", gap_tol))
        checks.append(_check(f"{label} remainder_bound", rep.bound_ok, "true", True))
    _write_seed(kind_dir, cfg["base_seed"], {"expansions": rows})
    return checks, [cfg["base_seed"]]


_RUNNERS = {
    "qv": _run_qv,
    "ito": partial(_run_decomposition, "ito"),
    "tanaka": partial(_run_decomposition, "tanaka"),
    "compensator": _run_compensator,
    "independence": _run_independence,
    "summability": _run_summability,
    "taylor": _run_taylor,
}


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _regrade(check, seed_rows) -> dict:
    """A persisted check graded again, with its rule's value when it has one; a rule
    with no per-seed rows to read is a :class:`SchemaError`.

    The check must be an object with a string ``name``, an ``op`` of
    :data:`CHECK_OPS`, and a ``value`` and ``bound`` that the op compares: a
    number and a number for ``le``, a number and ``[lo, hi]`` for ``in``,
    anything for ``true``.  Otherwise it is a :class:`SchemaError`.  A ``null``
    value (a number that was not finite) FAILs.
    """
    if not (isinstance(check, dict) and {"name", "value", "op", "bound"} <= check.keys()
            and isinstance(check["name"], str)):
        raise SchemaError(f"a check needs a string name, a value, an op and a bound: {check!r}")
    name, value, op, bound = (check[k] for k in ("name", "value", "op", "bound"))
    if not (isinstance(op, str) and op in CHECK_OPS):
        raise SchemaError(f"unknown check op {op!r}")
    if op != "true" and not ((value is None or _is_real(value))
                             and (_is_band if op == "in" else _is_real)(bound)):
        raise SchemaError(f"check {name!r} cannot compare {value!r} {op} {bound!r}")
    if "recompute" in check:
        if not seed_rows:
            raise SchemaError(f"check {name!r} has a recompute rule, but the aggregate lists "
                              "no per-seed report")
        value = _replay_value(check["recompute"], seed_rows)
    return _check(name, value, op, bound)


def replay(directory: str) -> int:
    """Re-evaluate pass/fail from persisted numbers; exit 0/1, or 2 on errors."""
    root = Path(directory)
    agg_path = root / "aggregate.json"
    if not agg_path.exists():
        candidates = sorted(root.glob("*/aggregate.json"))
        if len(candidates) != 1:
            print(f"error: no aggregate.json under {root}", file=sys.stderr)
            return 2
        agg_path = candidates[0]
    try:
        aggregate = json.loads(agg_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"error: unparsable aggregate: {exc}", file=sys.stderr)
        return 2
    per_seed = aggregate.get("per_seed", {}) if isinstance(aggregate, dict) else None
    if not (isinstance(per_seed, dict) and all(isinstance(rel, str) for rel in per_seed.values())):
        print("error: malformed aggregate: it must be a JSON object whose per_seed maps seeds"
              " to report paths", file=sys.stderr)
        return 2
    if aggregate.get("schema_version") != SCHEMA_VERSION:
        print(f"error: unsupported schema_version {aggregate.get('schema_version')!r}",
              file=sys.stderr)
        return 2

    seed_paths = [agg_path.parent / rel for rel in per_seed.values()]
    missing = [p for p in seed_paths if not p.exists()]
    if missing:
        print(f"error: missing per-seed report {missing[0]}", file=sys.stderr)
        return 2
    # the checks and reports are checked field by field, so a KeyError or TypeError
    # here is a fault of the program, not of the files, and propagates
    try:
        seed_rows = [json.loads(p.read_text()) for p in seed_paths]
        if not all(isinstance(row, dict) for row in seed_rows):
            raise SchemaError("a per-seed report must be a JSON object")
        if not isinstance(aggregate.get("checks"), list):
            raise SchemaError("the aggregate needs a list of checks")
        checks = [_regrade(c, seed_rows) for c in aggregate["checks"]]
    except (json.JSONDecodeError, SchemaError) as exc:
        print(f"error: malformed aggregate or report: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    return _verdicts(checks)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(config_path: str, overrides) -> int:
    try:
        recorded, cfg = _load_config(config_path, overrides)
        cfg["threads"] = _threads()
    except (OSError, ValueError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    kind_dir = Path(cfg["out_dir"]) / cfg["kind"]
    try:
        kind_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return 2
    # a plain ValueError marks an invalid argument (see errors.py): here a config value
    # that the library rejects, such as a local-time eps below the path's resolution
    try:
        checks, seeds = _RUNNERS[cfg["kind"]](cfg, kind_dir)
    except (ValueError, ResolutionExhaustedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _finish(recorded, kind_dir, checks, seeds)


def _signature(name: str, keys: dict) -> str:
    """``name(key, key=default, ...)`` of a key declaration, or ``name`` when it has no keys."""
    params = [k if default is _REQUIRED else f"{k}={default}" for k, (_, default) in keys.items()]
    return f"{name}({', '.join(params)})" if params else name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathcalc",
        description="run and replay partition-limit / decomposition experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--paths", type=int, default=None, help="override n_paths")
    p_run.add_argument("--level", type=int, default=None, help="override refinement level")
    p_run.add_argument("--out", default=None, help="override output directory")

    p_replay = sub.add_parser("replay", help="re-grade persisted reports")
    p_replay.add_argument("directory")

    sub.add_parser("catalog", help="list catalog functions, models and test processes")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args)
    if args.command == "replay":
        return replay(args.directory)
    if args.command == "catalog":
        sections = {
            "scalar functions": [f"{_signature(name, _PARAMETERS.get(name, {}))}: {desc}"
                                 for name, desc in list_catalog().items()],
            "path models": [_signature(kind, keys) for kind, (_, keys) in _MODELS.items()],
            "jump laws": [_signature(kind, keys) for kind, (_, keys) in _LAWS.items()],
            "increasing processes": [model.label for model in comp_mod.catalog_models()],
            "predictable test processes": [y.label for y in comp_mod.catalog_test_processes()],
        }
        for title, lines in sections.items():
            print(f"{title}:")
            for line in lines:
                print(f"  {line}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
