"""Batch experiment runner: ``run`` a JSON config, ``replay`` persisted
reports, or list the ``catalog``.

Output layout per run: ``<out>/<kind>/<seed>/report.json`` per seed (one per
path, one per (process, Y) pair for compensator, the base seed alone for
summability, taylor and independence), beside it ``paths.csv`` and
``decomposition.csv`` when paths persist and ``trace.csv`` for independence,
with ``aggregate.json`` and a one-page ``summary.txt`` at the experiment
level.  Aggregates are byte-identical across reruns of the same config and
seed: workers fan out across seeds (capped by ``PATHCALC_THREADS``) and write
their own files; the coordinator aggregates in fixed seed order, writing once.

``replay`` re-evaluates the persisted numbers against the recorded bounds
without recomputation, so acceptance stays auditable after the fact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import compensator as comp_mod
from .catalog import list_catalog, make_scalar_fn
from .decompose import (
    BracketModel,
    ito_decompose,
    occupation_local_time,
    tanaka_decompose,
    verify_report,
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
from .paths import model_from_dict, realized_qv, seeded_rng, simulate
from .riemann import dyadic_grid, limit_in_probability

SCHEMA_VERSION = 1
KINDS = ("summability", "taylor", "qv", "ito", "tanaka", "compensator", "independence")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path: str, overrides) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {type(cfg).__name__}")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"config schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    if cfg.get("kind") not in KINDS:
        raise ValueError(f"config kind must be one of {KINDS}, got {cfg.get('kind')!r}")
    if overrides.seed is not None:
        cfg["base_seed"] = overrides.seed
    if overrides.paths is not None:
        cfg["n_paths"] = overrides.paths
    if overrides.level is not None:
        cfg["level"] = overrides.level
        cfg["levels"] = [overrides.level]
    if overrides.out is not None:
        cfg["out_dir"] = overrides.out
    cfg.setdefault("base_seed", 0)
    # the compensator's paired Monte Carlo, graded at 3 SE, needs many paths
    cfg.setdefault("n_paths", 10_000 if cfg["kind"] == "compensator" else 1)
    cfg.setdefault("T", 1.0)
    cfg.setdefault("tolerances", {})
    cfg.setdefault("write_paths", "auto")
    if int(cfg["n_paths"]) < 1:
        raise ValueError("n_paths must be >= 1")
    return cfg


def _function_from(cfg_entry) -> ScalarFn:
    params = {k: v for k, v in cfg_entry.items() if k != "name"}
    return make_scalar_fn(cfg_entry["name"], **params)


def _threads() -> int:
    env = os.environ.get("PATHCALC_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _seed_file(seed, name: str = "report.json") -> str:
    """Where a seed's file lives, relative to the kind directory (see the module docstring)."""
    return f"{seed}/{name}"


def _write_seed(kind_dir: Path, seed, report: dict, files=()) -> None:
    """Write a seed's report, then each ``(name, write)`` of ``files`` by ``write(fh)``."""
    _write_json(kind_dir / _seed_file(seed), report)
    for name, write in files:
        with open(kind_dir / _seed_file(seed, name), "w") as fh:
            write(fh)


def _should_write_paths(cfg) -> bool:
    mode = cfg.get("write_paths", "auto")
    if mode == "auto":
        return int(cfg["n_paths"]) <= 64
    return bool(mode)


def _map_seeds(cfg, worker):
    seeds = [int(cfg["base_seed"]) + i for i in range(int(cfg["n_paths"]))]
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        results = list(pool.map(worker, seeds))
    return seeds, results


CHECK_OPS = {
    "le": lambda v, b: v <= b,
    "ge": lambda v, b: v >= b,
    "in": lambda v, b: b[0] <= v <= b[1],
    "true": lambda v, b: bool(v) is True,
}


def _check(name, value, op, bound) -> dict:
    return {
        "name": name,
        "value": value,
        "op": op,
        "bound": bound,
        "passed": bool(CHECK_OPS[op](value, bound)),
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
    """The value at a dotted key path of a per-seed row.

    A missing key reads as inf: the seed has no such number (say, an
    inapplicable report), so the statistic fails any upper bound.
    """
    cur = row
    for part in dotted.split("."):
        if part not in cur:
            return float("inf")
        cur = cur[part]
    return cur


def _diff_decreasing(rule, rows) -> bool:
    """Mean |S_k - S_(k+1)| over seeds does not grow along ``keys`` (5% slack)."""
    keys = rule["keys"]
    diffs = [
        float(np.mean([abs(_dig(r, a) - _dig(r, b)) for r in rows]))
        for a, b in zip(keys[:-1], keys[1:])
    ]
    return all(d2 <= d1 * 1.05 + 1e-12 for d1, d2 in zip(diffs[:-1], diffs[1:]))


def _mean_rel_err(rule, rows) -> float:
    """Per-seed |a_c_final - oracle| / oracle, averaged over the seeds that have
    a ``rule["key"]`` entry; inf when none has."""
    entries = [r[rule["key"]] for r in rows if rule["key"] in r]
    rels = [abs(e["a_c_final"] - e["oracle"]) / max(e["oracle"], 1e-12) for e in entries]
    return float(np.mean(rels)) if rels else float("inf")


STATS = {
    "max": lambda rule, rows: max(_dig(r, rule["key"]) for r in rows),
    "mean": lambda rule, rows: float(np.mean([_dig(r, rule["key"]) for r in rows])),
    "all_true": lambda rule, rows: all(bool(_dig(r, rule["key"])) for r in rows),
    "diff_decreasing": _diff_decreasing,
    "mean_rel_err": _mean_rel_err,
}


def _replay_value(rule, seed_rows):
    if rule["stat"] not in STATS:
        raise SchemaError(f"unknown recompute stat {rule['stat']!r}")
    return STATS[rule["stat"]](rule, seed_rows)


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


def _finish(cfg, kind_dir: Path, checks, seeds) -> int:
    aggregate = {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg["kind"],
        "config": cfg,
        "checks": checks,
        "per_seed": {str(s): _seed_file(s) for s in seeds},
    }
    _write_json(kind_dir / "aggregate.json", aggregate)
    return _verdicts(checks, kind_dir / "summary.txt")


# ---------------------------------------------------------------------------
# experiment runners: each returns its checks and the seeds that have a report
# ---------------------------------------------------------------------------


def _map_paths(cfg, kind_dir: Path, model, n_steps: int, evaluate):
    """Per seed in the pool, simulate a path and write ``evaluate(path)``'s row and files."""
    T = float(cfg["T"])
    write_paths = _should_write_paths(cfg)

    def worker(seed: int) -> dict:
        path = simulate(model, n_steps=n_steps, T=T, seed=seed)
        row, files = evaluate(path)
        row = {"seed": seed, **row}
        _write_seed(kind_dir, seed, row, files if write_paths else ())
        if write_paths:
            path.to_csv(kind_dir / _seed_file(seed, "paths.csv"))
        return row

    return _map_seeds(cfg, worker)


def _run_qv(cfg, kind_dir: Path):
    model = model_from_dict(cfg["model"])
    levels = [int(v) for v in cfg.get("levels", [8, 10, 12])]
    n_steps = int(cfg.get("n_steps", 2 ** (max(levels) + 2)))
    T = float(cfg["T"])
    # default: within 5% of the closed-form E[QV_T] = <X>_T of the model
    expected = float(BracketModel.from_model(model).total_at(T))
    band = cfg["tolerances"].get("qv_band", [0.95 * expected, 1.05 * expected])

    def evaluate(path):
        return {"qv": {str(lv): realized_qv(dyadic_grid(path, lv)) for lv in levels}}, ()

    seeds, rows = _map_paths(cfg, kind_dir, model, n_steps, evaluate)
    checks = [
        _recomputed_check(f"E[QV]_{T:g} in {band}", {"stat": "mean", "key": f"qv.{levels[-1]}"},
                          rows, "in", band),
        _recomputed_check("cauchy_trace_decreasing",
                          {"stat": "diff_decreasing", "keys": [f"qv.{lv}" for lv in levels]},
                          rows, "true", True),
    ]
    return checks, seeds


def _run_decomposition(mode, cfg, kind_dir: Path):
    model = model_from_dict(cfg["model"])
    f = _function_from(cfg["function"])
    level = int(cfg.get("level", 12))
    if level < 0:
        raise ValueError("level must be >= 0")
    n_steps = int(cfg.get("n_steps", 2 ** min(level + 2, 18)))
    tols = cfg["tolerances"]
    tol = float(tols.get("residual", 1e-8 if mode == "ito" else 1e-6))
    jump_tol = float(tols.get("jump", 1e-3))
    gap_tol = float(tols.get("identity_gap", 1e-8))
    corrupt = bool(cfg.get("negative_control", {}).get("corrupt_g_sign", False))
    lt_cfg = cfg.get("local_time")

    g = None
    if cfg.get("g"):
        g = _function_from(cfg["g"])
    if corrupt:
        base_g = g.fn if g is not None else f.derivative(1)
        if base_g is None:
            raise ValueError("negative control needs a derivative to corrupt")
        g = ScalarFn(label="corrupted_g", fn=lambda x: -np.asarray(base_g(x), dtype=float))

    decompose = ito_decompose if mode == "ito" else tanaka_decompose

    def evaluate(path):
        bracket = BracketModel.from_model(model)
        *coarser, report = [decompose(f, dyadic_grid(path, lv), bracket, g=g)
                            for lv in (level - 2, level - 1, level) if lv >= 0]
        verdict = verify_report(report, mode=mode, tol=tol, jump_tol=jump_tol,
                                gap_tol=gap_tol, coarser=coarser)
        row = {"summary": report.summary_dict(), "verdict": verdict.to_json_dict()}
        if lt_cfg and report.applicable:
            oracle = occupation_local_time(path, float(lt_cfg.get("level", 0.0)),
                                           float(lt_cfg["eps"]))
            row["local_time"] = {"a_c_final": float(report.residual[-1]), "oracle": oracle}
        return row, [("decomposition.csv", report.series_csv)]

    seeds, rows = _map_paths(cfg, kind_dir, model, n_steps, evaluate)
    checks = [
        _recomputed_check("max_identity_gap", {"stat": "max", "key": "summary.max_identity_gap"},
                          rows, "le", gap_tol),
        _recomputed_check("all_verdicts_pass", {"stat": "all_true", "key": "verdict.passed"},
                          rows, "true", True),
    ]
    if mode == "ito":
        checks.insert(0, _recomputed_check(
            "max_residual", {"stat": "max", "key": "summary.max_abs_residual"}, rows, "le", tol))
    if lt_cfg:
        checks.append(_recomputed_check(
            "local_time_mean_rel_err", {"stat": "mean_rel_err", "key": "local_time"}, rows,
            "le", float(cfg["tolerances"].get("local_time_rel", 0.10))))
    return checks, seeds


def _run_compensator(cfg, kind_dir: Path):
    n_paths = int(cfg["n_paths"])
    T = float(cfg["T"])
    base_seed = int(cfg["base_seed"])
    neg_factor = float(cfg.get("negative_control", {}).get("rate_factor", 1.5))
    models = comp_mod.catalog_models()
    ys = comp_mod.catalog_test_processes(T)

    checks = []
    seeds = []
    pair_seed = base_seed
    for model in models:
        for y in ys:
            verdict = comp_mod.verify_compensator(model, y, n_paths=n_paths, T=T, seed=pair_seed)
            _write_seed(kind_dir, pair_seed, {"seed": pair_seed, "pair": verdict.to_json_dict()})
            seeds.append(pair_seed)
            checks.append(_check(f"{model.label} x {y.label}", abs(verdict.diff), "le",
                                 verdict.bound))
            pair_seed += 1
    mart = comp_mod.martingale_check(models[0], n_paths=n_paths,
                                     checkpoints=(0.0, T / 2, T), seed=pair_seed)
    checks.append(_check("martingale_increments", mart["passed"], "true", True))
    pair_seed += 1
    neg = comp_mod.verify_compensator(models[0], comp_mod.ConstantY(1.0), n_paths=n_paths,
                                      T=T, seed=pair_seed, rate_factor=neg_factor)
    checks.append(_check("negative_control_fails", not neg.passed, "true", True))
    return checks, seeds


def _run_independence(cfg, kind_dir: Path):
    model = model_from_dict(cfg["model"])
    levels = [int(v) for v in cfg.get("levels", [8, 10, 12])]
    eps_list = [float(v) for v in cfg.get("hitting_eps", [2**-4, 2**-5, 2**-6])]
    n_steps = int(cfg.get("n_steps", 2 ** (max(levels) + 2)))
    diag = limit_in_probability(
        squared_increment(), model,
        schemes=[{"scheme": "dyadic", "params": levels},
                 {"scheme": "hitting", "params": eps_list}],
        n_paths=int(cfg["n_paths"]), eps=float(cfg["tolerances"].get("eps", 0.05)),
        delta=float(cfg["tolerances"].get("delta", 0.05)),
        n_steps=n_steps, T=float(cfg["T"]), base_seed=int(cfg["base_seed"]),
    )
    _write_seed(kind_dir, cfg["base_seed"], diag.to_json_dict(), [("trace.csv", diag.trace_csv)])
    cross = max(diag.cross_tail.values())
    checks = [
        _check("cross_scheme_tail", cross, "le", diag.delta),
        _check("verdict", diag.verdict, "true", True),
    ]
    return checks, [cfg["base_seed"]]


def _run_summability(cfg, kind_dir: Path):
    rng = seeded_rng(cfg["base_seed"])
    names = cfg.get("functions", ["abs", "square", "cube", "x_abs_x_half"])
    n_draws = int(cfg.get("n_draws", 1000))
    tol = float(cfg["tolerances"].get("limit", 1e-4))
    exact_tol = float(cfg["tolerances"].get("exact", 1e-10))

    worst = 0.0
    for _ in range(n_draws):
        f = make_scalar_fn(names[int(rng.integers(len(names)))])
        a, b = sorted(rng.uniform(-2, 2, size=2))
        if b - a < 1e-3:
            continue
        pts = np.sort(rng.uniform(a, b, size=int(rng.integers(1, 32))))
        pts = pts[(pts > a) & (pts < b)]
        s = partition_sum(increment_fn(f), Partition(a, b, tuple(pts)))
        worst = max(worst, abs(s - (float(f(b)) - float(f(a)))))

    add_worst = 0.0
    for name in names:
        F = increment_fn(make_scalar_fn(name))
        a, b = -1.0, 1.0
        t = float(rng.uniform(a + 0.1, b - 0.1))
        whole = summability_limit(F, a, b, tol=tol)
        left = summability_limit(F, a, t, tol=tol)
        right = summability_limit(F, t, b, tol=tol)
        add_worst = max(add_worst, abs(whole.estimate - left.estimate - right.estimate))

    checks = [
        _check("telescoping_max_error", worst, "le", exact_tol),
        _check("additivity_max_error", add_worst, "le", 2 * tol),
    ]
    _write_seed(kind_dir, cfg["base_seed"],
                {"telescoping_max_error": worst, "additivity_max_error": add_worst})
    return checks, [cfg["base_seed"]]


def _run_taylor(cfg, kind_dir: Path):
    entries = cfg.get("entries") or [
        {"function": {"name": "square"}, "a": 0.0, "b": 2.0, "k": 2},
        {"function": {"name": "cube"}, "a": 0.0, "b": 1.0, "k": 3},
        {"function": {"name": "x_abs_x_half"}, "a": 0.0, "b": 1.0, "k": 2},
    ]
    gap_tol = float(cfg["tolerances"].get("identity_gap", 1e-8))
    checks = []
    rows = []
    for e in entries:
        f = _function_from(e["function"])
        rep = taylor_check(increment_fn(f), float(e["a"]), float(e["b"]), int(e["k"]),
                           tol=gap_tol)
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


def _regrade(check: dict, seed_rows) -> dict:
    """A persisted check graded again, with its rule's value when it has one."""
    if check["op"] not in CHECK_OPS:
        raise SchemaError(f"unknown check op {check['op']!r}")
    value = check["value"]
    if "recompute" in check and seed_rows:
        value = _replay_value(check["recompute"], seed_rows)
    return _check(check["name"], value, check["op"], check["bound"])


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
    if aggregate.get("schema_version") != SCHEMA_VERSION:
        print(f"error: unsupported schema_version {aggregate.get('schema_version')!r}",
              file=sys.stderr)
        return 2

    seed_paths = [agg_path.parent / rel for rel in aggregate.get("per_seed", {}).values()]
    missing = [p for p in seed_paths if not p.exists()]
    if missing:
        print(f"error: missing per-seed report {missing[0]}", file=sys.stderr)
        return 2
    try:
        seed_rows = [json.loads(p.read_text()) for p in seed_paths]
        checks = [_regrade(c, seed_rows) for c in aggregate["checks"]]
    except (json.JSONDecodeError, KeyError, TypeError, SchemaError) as exc:
        print(f"error: malformed aggregate or report: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    return _verdicts(checks)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(config_path: str, overrides) -> int:
    try:
        cfg = _load_config(config_path, overrides)
    except (OSError, ValueError, TypeError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.get("out_dir", "pathcalc_out"))
    kind_dir = out_dir / cfg["kind"]
    try:
        kind_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return 2
    # a config key that is missing or of the wrong type surfaces inside the runner
    # as KeyError, TypeError or AttributeError; like a rejected value it is a config error
    try:
        checks, seeds = _RUNNERS[cfg["kind"]](cfg, kind_dir)
    except KeyError as exc:
        print(f"config error: missing key {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, AttributeError, ResolutionExhaustedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _finish(cfg, kind_dir, checks, seeds)


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
        print("scalar functions:")
        for name, desc in list_catalog().items():
            print(f"  {name}: {desc}")
        print("path models: bm, cpj, jd, fv (see paths.model_from_dict)")
        print("jump laws: two_point(p, a1, a2), uniform(lo, hi), normal(mean, std)")
        print("increasing processes: poisson_counting, compound_poisson_increasing,"
              " path_qv, deterministic")
        print("predictable test processes: const(c), step(tau), state(cos|sign|tanh)")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
