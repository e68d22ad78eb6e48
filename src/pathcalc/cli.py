"""Batch experiment runner: ``run`` a JSON config, ``replay`` persisted
reports, or list the ``catalog``.

A run owns ``<out>/<kind>``: its runner writes into a fresh directory under
``<out>``, which replaces ``<out>/<kind>`` when the runner returns, so
nothing that an earlier run left there stays.  A run that ends before that
(a config value that the runner rejects, say) removes the fresh directory
and leaves ``<out>/<kind>`` as it was; the directories that the run made
for ``<out>`` are removed too, those that it left empty.  Output layout
per run: ``<out>/<kind>/<seed>/report.json`` per seed (one per path; for
compensator one per (process, Y) pair, then one for its martingale
check and one for its negative control at the next two seeds; the base seed
alone for summability, taylor and independence), with ``aggregate.json`` and
a one-page ``summary.txt`` at the experiment level.  That is the whole
output unless a qv, ito or tanaka config sets ``write_paths`` to ``true``
(``false`` by default; a value other than ``true`` or ``false`` is a config
error): then each seed directory also holds its path as ``paths.csv``, and
for ito and tanaka the decomposition series as ``decomposition.csv``.
Nothing here reads them back, since ``simulate`` rebuilds each path bit for
bit from the recorded config; they are for export.  The docstrings of
``SamplePath.to_csv`` and ``DecompositionReport.series_csv`` state their
bytes.  Every JSON file is strict JSON: a number that is not finite is
written as ``null``, and a check whose value is ``null`` FAILs.
Aggregates are byte-identical across reruns of the same config and seed,
whatever the thread count: workers fan out across seeds on one pool of
``PATHCALC_THREADS`` threads (by default the usable CPUs, up to 8) and write
their own files.  A compensator run fans out its processes, its martingale
check and its negative control.  A process draws its paths once, from the
seed of its first (process, Y) pair, and checks every Y on them; it writes
each pair's report at that pair's own seed.  The coordinator aggregates in
fixed seed order, writing once.

Each kind's config keys, with the type and default of each key, are
declared once, in ``_COMMON`` and ``_KEYS`` below, and only in the kinds
that read them: ``n_paths`` and ``T`` in qv, ito, tanaka, compensator and
independence, ``write_paths`` in qv, ito and tanaka, and ``local_time``
and ``tolerances.local_time_rel`` in tanaka alone.  The ito and tanaka
kinds grade their identity gap against the rounding floor 1e-10 alone
(``identity_gap_floor``), so neither declares a ``tolerances.identity_gap``;
taylor keeps its own.  ``_load_config`` checks a config against them and
resolves it before any output directory exists, and the runners read only
the resolved values; ``aggregate.json`` records the config as written,
with the defaults of the ``_RECORDED`` keys that the kind declares.
Refinement lists run from coarse to fine: ``levels`` strictly increasing,
``hitting_eps`` strictly decreasing.  The kinds that simulate paths on a
time grid, qv, ito, tanaka and independence, default ``n_steps`` to
2 ** (finest level + 2), at most 2 ** 18; the finest level is ``level``, or
the last of ``levels``.  Each override sets the key that it names:
``--seed`` ``base_seed``, ``--paths`` ``n_paths``, ``--out`` ``out_dir``,
and ``--level`` ``level``, or ``levels`` as ``[level]``.

An unknown key, a missing required key, a value of the wrong type or out
of its range (``T`` and ``local_time.eps`` > 0, ``n_steps`` >= 1, every
seed that the run draws with in [0, 2**64): its last as its ``base_seed``),
a model that its class rejects (an ``fv`` model whose ``knots_x`` and
``knots_t`` differ in length, say), a NaN or Infinity anywhere in the
config, an override on a kind that does not
declare its key (``--paths`` on summability), or a ``PATHCALC_THREADS``
that is not a positive integer is a config error, found before any output
directory exists.  A config error prints ``config error: …`` and exits 2.
Once a runner has started, only a plain ``ValueError`` (an argument the
library rejects, see ``errors.py``) or a ``ResolutionExhaustedError`` is
reported as a config error; any other exception is a fault of the program
and propagates.

``replay`` grades a run again from its persisted numbers, so acceptance
stays auditable after the fact.  Each kind has one grading function of its
resolved config and its per-seed reports (:data:`_KIND_FUNCTIONS`): ``run``
calls it on the reports that it has just written, and ``replay`` on the
reports that it reads back, with the aggregate's recorded ``config``
resolved again, so an edited report number changes the verdict.  ``replay``
reads only the aggregate's ``schema_version`` (:data:`AGGREGATE_VERSION`),
``kind``, ``config`` and ``per_seed``.  Any other version, a config that
does not resolve (an aggregate that recorded ``"write_paths": "auto"``, a
value that older runs accepted, among them), a ``per_seed`` other than the
config's, or a malformed report prints ``error: …`` and exits 2; any other
exception is a fault of the program and propagates.

``replay --recompute`` then audits what grading cannot: a number edited
within its check's bound.  It runs the kind's runner again on the resolved
config, into a temporary directory, and compares every file under each
seed directory byte for byte with the recorded one (a per-seed file records
no output path, so a faithful run matches it exactly).  Each file that
differs, is missing or is extra prints ``recompute: <seed>/<file> differs``
and the replay exits 1; a runner that rejects the recorded config exits 2;
otherwise it prints ``recompute: every seed file matches``, and the exit
code is the grade's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import compensator as comp_mod
from .catalog import _PARAMETERS, list_catalog, make_scalar_fn
from .decompose import ito_decompose, occupation_local_time, tanaka_decompose
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
    _is_count,
    _is_int,
    _is_real,
    _is_seed,
    _real,
    _resolve_keys,
    model_from_dict,
    seeded_rng,
    simulate,
)
from .riemann import _tail_fractions, dyadic_grid, limit_in_probability, realized_qv

# the version of a run config's fields
SCHEMA_VERSION = 1
# the version of aggregate.json's fields; replay reads no other
AGGREGATE_VERSION = 2


# ---------------------------------------------------------------------------
# config keys: each kind's keys, with the type and default of each, declared once
# ---------------------------------------------------------------------------


def _as_given(value, name):
    return value


def _typed(accepts, what: str):
    """A type that takes a value as written when ``accepts(value)``; ``what`` names such values."""
    def check(value, name: str):
        if not accepts(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return value
    return check


_int = _typed(_is_int, "an integer")
_count = _typed(_is_count, "an integer >= 1")
# the first seed of a run, a key of seeded_rng
_seed = _typed(_is_seed, "an integer in [0, 2**64)")
_flag = _typed(lambda v: isinstance(v, bool), "true or false")
_text = _typed(lambda v: isinstance(v, str), "a string")


# refinement lists run from coarse to fine: the checks read the last entry as the finest
_levels = _typed(lambda v: isinstance(v, list) and v and all(_is_int(x) and x >= 0 for x in v)
                 and all(a < b for a, b in zip(v, v[1:])),
                 "a non-empty list of integers >= 0, strictly increasing")
_eps_list = _typed(lambda v: isinstance(v, list) and v
                   and all(_is_real(x) and math.isfinite(x) and x > 0 for x in v)
                   and all(a > b for a, b in zip(v, v[1:])),
                   "a non-empty list of finite numbers > 0, strictly decreasing")


def _positive_real(value, name: str) -> float:
    """A number > 0, made a float like ``_real``."""
    if not (_is_real(value) and value > 0):
        raise ValueError(f"{name} must be a number > 0, got {value!r}")
    return float(value)


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
    expected = sum(cfg["model"].bracket_coeffs) * cfg["T"]
    return [0.95 * expected, 1.05 * expected]


_TAYLOR_ENTRY = {"function": (_function, _REQUIRED), "a": (_real, _REQUIRED),
                 "b": (_real, _REQUIRED), "k": (_int, _REQUIRED)}

# the kinds that simulate paths: how many (per pair, for compensator) and over [0, T]
_PATHS = {"n_paths": (_count, 1), "T": (_positive_real, 1.0)}

# the kinds that simulate one path per seed, and may write it (see the module docstring)
_SEED_PATHS = {**_PATHS, "write_paths": (_flag, False)}


def _n_steps(finest_level: int) -> int:
    """The default ``n_steps`` of a kind with dyadic levels (see the module docstring)."""
    return 2 ** min(finest_level + 2, 18)


_LEVELS = {
    "levels": (_levels, [8, 10, 12]),
    "n_steps": (_count, lambda cfg: _n_steps(max(cfg["levels"]))),
}


def _decomposition_keys(residual: float, **tolerances) -> dict:
    return {
        "model": (_model, _REQUIRED),
        **_SEED_PATHS,
        "function": (_function, _REQUIRED),
        "g": (_function, None),
        "level": (_level, 12),
        "n_steps": (_count, lambda cfg: _n_steps(cfg["level"])),
        "negative_control": ({"corrupt_g_sign": (_flag, False)}, {}),
        "tolerances": ({"residual": (_real, residual), **tolerances}, {}),
    }


# the keys of every kind (see _resolve_keys for the form of a declaration)
_COMMON = {
    "schema_version": (_as_given, _REQUIRED),
    "kind": (_as_given, _REQUIRED),
    "out_dir": (_text, "pathcalc_out"),
    "base_seed": (_seed, 0),
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
               "local_time": ({"level": (_real, 0.0), "eps": (_positive_real, _REQUIRED)}, None)},
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
    """The config at ``path`` with the CLI ``overrides``: see :func:`_resolve_config`."""
    with open(path) as fh:
        return _resolve_config(json.load(fh), overrides)


def _resolve_config(raw, overrides=None) -> tuple[dict, dict]:
    """The config ``raw`` with the CLI ``overrides``, checked against its kind's keys.

    Returns the config as ``aggregate.json`` records it (as written, with the
    overrides and the defaults of :data:`_RECORDED`) and the resolved config
    that the runner reads: every key of the kind, of its declared type, with
    models and catalog functions built.
    """
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
        value = getattr(overrides, flag, None)
        if value is None:
            continue
        key = next((k for k in targets if k in keys), None)
        if key is None:
            raise ValueError(f"--{flag} does not apply to the {kind} kind")
        raw[key] = [value] if key == "levels" else value
    recorded = {**{k: keys[k][1] for k in _RECORDED if k in keys}, **raw}
    cfg = _resolve_keys(raw, keys, f"the {kind} config")
    # every seed that the run keys a generator by lies in seeded_rng's range, its last
    # one too: the seeds of its reports, and for independence one per path
    count = cfg["n_paths"] if kind == "independence" else len(_seeds(cfg))
    if cfg["base_seed"] + count > 2**64:
        raise ValueError(f"base_seed must leave room below 2**64 for the run's {count} "
                         f"seeds, got {cfg['base_seed']}")
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


def _seeds(cfg) -> range:
    """The seeds of a run's reports, in order (see the module docstring): one per path of
    the kinds that may write paths, one per (process, Y) pair and two more for compensator
    (a process draws from the seed of its first pair alone), one for the other kinds."""
    n = (len(_compensator_pairs(cfg["T"])) + 2 if cfg["kind"] == "compensator"
         else cfg["n_paths"] if "write_paths" in cfg else 1)
    return range(cfg["base_seed"], cfg["base_seed"] + n)


def _task_seeds(cfg) -> list:
    """The first seed of each pool task, in order: a compensator process is one task over the
    seeds of its (process, Y) pairs, and every other task has one seed of :func:`_seeds`."""
    seeds = _seeds(cfg)
    if cfg["kind"] != "compensator":
        return list(seeds)
    return [*seeds[:-2:len(comp_mod.catalog_test_processes(cfg["T"]))], *seeds[-2:]]


def _map_seeds(cfg, worker) -> list:
    """``worker(seed)``'s results on the pool for each seed of :func:`_task_seeds`, in
    order."""
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        return list(pool.map(worker, _task_seeds(cfg)))


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


# ---------------------------------------------------------------------------
# experiment runners: each writes its per-seed reports and returns them in seed order
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
    levels = cfg["levels"]

    # finest first, so that each coarser level strides the path's finest picks (dyadic_grid)
    def evaluate(path):
        return {"qv": {str(lv): realized_qv(dyadic_grid(path, lv)) for lv in reversed(levels)}}, ()

    return _map_paths(cfg, kind_dir, evaluate)


def _run_decomposition(cfg, kind_dir: Path):
    mode, f, g, level = cfg["kind"], cfg["function"], cfg["g"], cfg["level"]
    lt = cfg["local_time"] if mode == "tanaka" else None
    if cfg["negative_control"]["corrupt_g_sign"]:
        base_g = g.fn if g is not None else f.derivative(1)
        if base_g is None:
            raise ValueError("negative control needs a derivative to corrupt")
        g = ScalarFn(label="corrupted_g", fn=lambda x: -np.asarray(base_g(x), dtype=float))

    decompose = ito_decompose if mode == "ito" else tanaka_decompose

    def evaluate(path):
        report = decompose(f, dyadic_grid(path, level), g=g)
        summary = report.summary_dict()
        row = {"summary": summary}
        # an inapplicable report has no local time, and its checks FAIL
        if lt is not None and report.applicable:
            oracle = occupation_local_time(path, lt["level"], lt["eps"])
            row["local_time"] = {"a_c_final": summary["final"]["residual"], "oracle": oracle}
        return row, [("decomposition.csv", report.series_csv)]

    return _map_paths(cfg, kind_dir, evaluate)


def _compensator_pairs(T: float) -> list:
    return [(model, y) for model in comp_mod.catalog_models()
            for y in comp_mod.catalog_test_processes(T)]


def _run_compensator(cfg, kind_dir: Path):
    n_paths, T, rate_factor = cfg["n_paths"], cfg["T"], cfg["negative_control"]["rate_factor"]
    models, ys = comp_mod.catalog_models(), comp_mod.catalog_test_processes(T)

    # one seed per (process, Y) pair, then the martingale check's and the negative control's.
    # A process is one task: it draws its paths once, from the seed of its first pair, and
    # writes each pair's report at that pair's own seed.
    def worker(seed: int) -> list:
        k = (seed - cfg["base_seed"]) // len(ys)
        if k < len(models):
            rows = [{"pair": v.to_json_dict()} for v in comp_mod.verify_process(
                models[k], ys, n_paths=n_paths, T=T, seed=seed)]
        elif seed == cfg["base_seed"] + len(models) * len(ys):
            rows = [{"martingale": comp_mod.martingale_check(models[0], n_paths=n_paths, T=T,
                                                             seed=seed)}]
        else:
            rows = [{"negative_control": comp_mod.verify_compensator(
                models[0], comp_mod.ConstantY(1.0), n_paths=n_paths, T=T, seed=seed,
                rate_factor=rate_factor).to_json_dict()}]
        rows = [{"seed": s, **row} for s, row in enumerate(rows, seed)]
        for row in rows:
            _write_seed(kind_dir, row["seed"], row)
        return rows

    return [row for rows in _map_seeds(cfg, worker) for row in rows]


def _schemes(cfg) -> dict:
    """The params of each grid scheme of an independence run, coarse to fine."""
    return {"dyadic": cfg["levels"], "hitting": cfg["hitting_eps"]}


def _run_independence(cfg, kind_dir: Path):
    diag = limit_in_probability(
        squared_increment(), cfg["model"],
        schemes=[{"scheme": name, "params": ps} for name, ps in _schemes(cfg).items()],
        n_paths=cfg["n_paths"], eps=cfg["tolerances"]["eps"], n_steps=cfg["n_steps"],
        T=cfg["T"], base_seed=cfg["base_seed"],
    )
    row = diag.to_json_dict()
    _write_seed(kind_dir, cfg["base_seed"], row)
    return [row]


def _run_summability(cfg, kind_dir: Path):
    rng = seeded_rng(cfg["base_seed"])
    fns = cfg["functions"]
    tol = cfg["tolerances"]["limit"]

    worst = 0.0
    for _ in range(cfg["n_draws"]):
        f = fns[int(rng.integers(len(fns)))]
        a, b = sorted(rng.uniform(-2, 2, size=2))
        if b - a < 1e-3:
            continue
        pts = np.sort(rng.uniform(a, b, size=int(rng.integers(1, 32))))
        pts = pts[(pts > a) & (pts < b)]
        s = partition_sum(increment_fn(f), Partition(a, b, pts))
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
    return [row]


def _run_taylor(cfg, kind_dir: Path):
    row = {"expansions": [
        taylor_check(increment_fn(e["function"]), e["a"], e["b"], e["k"],
                     tol=cfg["tolerances"]["identity_gap"]).to_dict()
        for e in cfg["entries"]]}
    _write_seed(kind_dir, cfg["base_seed"], row)
    return [row]


# ---------------------------------------------------------------------------
# grading: one function per kind, of its resolved config and its per-seed reports in
# seed order, shared by run and replay
# ---------------------------------------------------------------------------


def _field(row: dict, dotted: str, accepts, what: str):
    """The value at a dotted key path of a per-seed report, ``None`` where a key is missing
    or ``null``; a :class:`SchemaError` unless ``accepts(value)``, where ``what`` names such
    values, or where the path runs through something other than an object."""
    value = row
    for part in dotted.split("."):
        if not isinstance(value, dict):
            raise SchemaError(f"{dotted!r} of a per-seed report runs through {value!r}")
        value = value.get(part)
        if value is None:
            break
    if not accepts(value):
        raise SchemaError(f"{dotted!r} of a per-seed report must be {what}, got {value!r}")
    return value


def _dig(row: dict, dotted: str) -> float:
    """The number at a dotted key path of a per-seed report.

    A missing key, a ``null`` and a number that is not finite all read as
    inf: the seed has no such number (say, an inapplicable report), so the
    statistic fails any upper bound.
    """
    value = _field(row, dotted, lambda v: v is None or _is_real(v), "a number")
    return float(value) if value is not None and math.isfinite(value) else math.inf


def _grade_qv(cfg, rows) -> list:
    levels, band = cfg["levels"], cfg["tolerances"]["qv_band"]
    diffs = [float(np.mean([abs(_dig(r, f"qv.{a}") - _dig(r, f"qv.{b}")) for r in rows]))
             for a, b in zip(levels, levels[1:])]
    return [
        _check(f"E[QV]_{cfg['T']:g} in {band}",
               float(np.mean([_dig(r, f"qv.{levels[-1]}") for r in rows])), "in", band),
        # the mean |S_k - S_(k+1)| over seeds does not grow along the levels (5% slack)
        _check("cauchy_trace_decreasing",
               all(d2 <= d1 * 1.05 + 1e-12 for d1, d2 in zip(diffs, diffs[1:])), "true", True),
    ]


def _grade_decomposition(cfg, rows) -> list:
    tols = cfg["tolerances"]

    def at_most(name, key, bound):
        return _check(name, max(_dig(r, key) for r in rows), "le", bound)

    # the independently summed columns close the identity up to rounding: a larger gap
    # is a defect, so no tolerance loosens this bound
    checks = [at_most("identity_gap_floor", "summary.max_identity_gap", 1e-10)]
    if cfg["kind"] == "ito":
        return [at_most("max_residual", "summary.max_abs_residual", tols["residual"]), *checks]
    checks += [
        at_most("max_residual_decrease", "summary.max_residual_decrease", tols["residual"]),
        at_most("max_jump_cell_residual", "summary.max_jump_cell_residual", tols["jump"]),
    ]
    if cfg["local_time"] is not None:
        # per-seed |a_c_final - oracle| / oracle, averaged over the seeds whose report is
        # applicable and so has the entry; inf when none has
        lt = [(_dig(r, "local_time.a_c_final"), _dig(r, "local_time.oracle"))
              for r in rows if "local_time" in r]
        rel = float(np.mean([abs(a - o) / max(o, 1e-12) for a, o in lt])) if lt else math.inf
        checks.append(_check("local_time_mean_rel_err", rel, "le", tols["local_time_rel"]))
    return checks


def _within_3se(name: str, row: dict, mean: str, se: str) -> dict:
    """The check |mean| <= 3 se (``compensator._se_bound``) of a paired Monte Carlo report;
    it FAILs when either number is missing or not finite."""
    mean, se = _dig(row, mean), _dig(row, se)
    return _check(name, abs(mean) if math.isfinite(se) else math.inf, "le",
                  comp_mod._se_bound(se))


def _grade_compensator(cfg, rows) -> list:
    *pair_rows, mart, neg = rows
    checks = [_within_3se(f"{model.label} x {y.label}", row, "pair.diff", "pair.se_combined")
              for (model, y), row in zip(_compensator_pairs(cfg["T"]), pair_rows)]
    increments = _field(mart, "martingale.increments", lambda v: isinstance(v, list)
                        and len(v) == 2, "its 2 increments, over [0, T/2] and [T/2, T]")
    checks.append(_check(
        "martingale_increments",
        all(_within_3se("", inc, "mean_increment", "se")["passed"] for inc in increments),
        "true", True))
    control = _within_3se("", neg, "negative_control.diff", "negative_control.se_combined")
    # the control passes when its own check FAILs on numbers that it has
    checks.append(_check("negative_control_fails",
                         None if control["value"] is None else not control["passed"],
                         "true", True))
    return checks


def _grade_independence(cfg, rows) -> list:
    (row,), tols, n, estimates = rows, cfg["tolerances"], cfg["n_paths"], {}
    for name, ps in _schemes(cfg).items():
        # one list of sums per path, one sum per param; null reads as NaN
        sums = _field(row, f"estimates.{name}", lambda v: isinstance(v, list) and len(v) == n
                      and all(isinstance(p, list) and len(p) == len(ps)
                              and all(x is None or _is_real(x) for x in p) for p in v),
                      f"{n} lists of {len(ps)} numbers")
        estimates[name] = np.array(sums, dtype=float)
    _, cross_tail, verdict = _tail_fractions(estimates, tols["eps"], tols["delta"])
    return [
        _check("cross_scheme_tail", max(cross_tail.values()), "le", tols["delta"]),
        _check("verdict", verdict, "true", True),
    ]


def _grade_summability(cfg, rows) -> list:
    (row,), tols = rows, cfg["tolerances"]
    return [
        _check("telescoping_max_error", _dig(row, "telescoping_max_error"), "le", tols["exact"]),
        _check("additivity_max_error", _dig(row, "additivity_max_error"), "le",
               2 * tols["limit"]),
    ]


def _grade_taylor(cfg, rows) -> list:
    (row,), entries, checks = rows, cfg["entries"], []
    expansions = _field(row, "expansions", lambda v: isinstance(v, list)
                        and len(v) == len(entries), f"a list of {len(entries)} expansions")
    for e, rep in zip(entries, expansions):
        label = f"{e['function'].label}[{e['a']},{e['b']}]k={e['k']}"
        bound_ok = _field(rep, "bound_ok", lambda v: isinstance(v, bool), "true or false")
        checks += [_check(f"{label} identity_gap", _dig(rep, "identity_gap"), "le",
                          cfg["tolerances"]["identity_gap"]),
                   _check(f"{label} remainder_bound", bound_ok, "true", True)]
    return checks


# each kind's runner, which writes its per-seed reports and returns them in seed order, and
# its grading function of its resolved config and those reports
_KIND_FUNCTIONS = {
    "qv": (_run_qv, _grade_qv),
    "ito": (_run_decomposition, _grade_decomposition),
    "tanaka": (_run_decomposition, _grade_decomposition),
    "compensator": (_run_compensator, _grade_compensator),
    "independence": (_run_independence, _grade_independence),
    "summability": (_run_summability, _grade_summability),
    "taylor": (_run_taylor, _grade_taylor),
}


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _recorded_run(agg_path: Path):
    """The resolved config and the per-seed reports, in seed order, of the run whose
    aggregate is at ``agg_path``; a :class:`SchemaError` where the files describe none."""
    aggregate = json.loads(agg_path.read_text())
    version = aggregate.get("schema_version") if isinstance(aggregate, dict) else None
    if version != AGGREGATE_VERSION:
        raise SchemaError(f"unsupported aggregate schema_version {version!r}")
    try:
        cfg = _resolve_config(aggregate.get("config"))[1]
    except (ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed aggregate: its config: {exc}") from exc
    seeds, per_seed = _seeds(cfg), aggregate.get("per_seed")
    # the lengths first: the seeds come from a file, and may be many
    if not (aggregate.get("kind") == cfg["kind"] and isinstance(per_seed, dict)
            and len(per_seed) == len(seeds)
            and all(per_seed.get(str(s)) == _seed_file(s) for s in seeds)):
        raise SchemaError(f"malformed aggregate: its kind and per_seed must be its config's, "
                          f"{cfg['kind']!r} and the reports of seeds {seeds}")
    return cfg, [json.loads((agg_path.parent / _seed_file(s)).read_text()) for s in seeds]


def _seed_files(kind_dir: Path, seed) -> dict:
    """The files under a seed's directory, by their path relative to the kind directory."""
    seed_dir = (kind_dir / _seed_file(seed)).parent
    return {_seed_file(seed, p.relative_to(seed_dir).as_posix()): p
            for p in seed_dir.rglob("*") if p.is_file()}


def _recompute(cfg, kind_dir: Path) -> list:
    """The seed files of the run in ``kind_dir`` that differ, by bytes or by being there,
    from those of the kind's runner run again on ``cfg`` (see the module docstring)."""
    with tempfile.TemporaryDirectory() as fresh:
        _KIND_FUNCTIONS[cfg["kind"]][0]({**cfg, "threads": _threads()}, Path(fresh))
        differing = []
        for seed in _seeds(cfg):
            recorded, rerun = _seed_files(kind_dir, seed), _seed_files(Path(fresh), seed)
            differing += [rel for rel in sorted(recorded.keys() | rerun.keys())
                          if rel not in recorded or rel not in rerun
                          or recorded[rel].read_bytes() != rerun[rel].read_bytes()]
        return differing


def replay(directory: str, recompute: bool = False) -> int:
    """Grade a run again from its recorded config and per-seed reports, and with
    ``recompute`` compare its seed files with a fresh run's; exit 0/1, or 2 on errors."""
    root = Path(directory)
    found = ([root / "aggregate.json"] if (root / "aggregate.json").exists()
             else sorted(root.glob("*/aggregate.json")))
    if len(found) != 1:
        print(f"error: no aggregate.json under {root}", file=sys.stderr)
        return 2
    # the files are checked field by field, so a KeyError or TypeError here is a fault of
    # the program, not of the files, and propagates
    try:
        cfg, rows = _recorded_run(found[0])
        checks = _KIND_FUNCTIONS[cfg["kind"]][1](cfg, rows)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: unreadable aggregate or report: {exc}", file=sys.stderr)
        return 2
    rc = _verdicts(checks)
    if not recompute:
        return rc
    # as in run, a plain ValueError marks a recorded config value that the library rejects
    try:
        differing = _recompute(cfg, found[0].parent)
    except (ValueError, ResolutionExhaustedError, OSError) as exc:
        print(f"error: recompute: {exc}", file=sys.stderr)
        return 2
    for rel in differing:
        print(f"recompute: {rel} differs")
    if differing:
        return 1
    print("recompute: every seed file matches")
    return rc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _missing_dirs(directory: Path) -> list:
    """``directory`` and those of its ancestors that do not exist, deepest first."""
    missing = []
    for d in (directory, *directory.parents):
        if d.exists():
            break
        missing.append(d)
    return missing


def _remove_empty(dirs) -> None:
    """Remove each of ``dirs``, deepest first, up to the first that is not empty."""
    for d in dirs:
        try:
            d.rmdir()
        except OSError:
            return


def run(config_path: str, overrides) -> int:
    try:
        recorded, cfg = _load_config(config_path, overrides)
        cfg["threads"] = _threads()
    except (OSError, ValueError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # the run owns its kind directory: its runner writes into a fresh one (made by mkdir,
    # as mkdtemp's mode is 0o700), which replaces it once the runner returns and is removed
    # on any other exit, so a run that ends early leaves an earlier run as it was, and no
    # directory that it made
    kind_dir = Path(cfg["out_dir"]) / cfg["kind"]
    made = _missing_dirs(kind_dir.parent)
    try:
        kind_dir.parent.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f".{cfg['kind']}-", dir=kind_dir.parent))
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return 2
    fresh = scratch / cfg["kind"]
    # a plain ValueError marks an invalid argument (see errors.py): here a config value
    # that the library rejects, such as a local-time eps below the path's resolution
    run_kind, grade = _KIND_FUNCTIONS[cfg["kind"]]
    try:
        fresh.mkdir()
        rows = run_kind(cfg, fresh)
        shutil.rmtree(kind_dir, ignore_errors=True)
        fresh.rename(kind_dir)
    except (ValueError, ResolutionExhaustedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # the directories above <out>/<kind> that this run made stay only when they hold it
        _remove_empty(made)
    checks = grade(cfg, rows)
    _write_json(kind_dir / "aggregate.json", {
        "schema_version": AGGREGATE_VERSION, "kind": cfg["kind"], "config": recorded,
        "checks": checks, "per_seed": {str(s): _seed_file(s) for s in _seeds(cfg)}})
    return _verdicts(checks, kind_dir / "summary.txt")


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
    p_replay.add_argument("--recompute", action="store_true",
                          help="also run the recorded config again and compare every seed "
                               "file byte for byte")

    sub.add_parser("catalog", help="list catalog functions, models and test processes")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args)
    if args.command == "replay":
        return replay(args.directory, args.recompute)
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
