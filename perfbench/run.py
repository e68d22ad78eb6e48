"""End-to-end benchmark of ``pathcalc run``, with a separate traced run for per-layer times.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tanaka_bm --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --smoke

One process drives ``pathcalc.cli.main`` closed-loop, one run at a time, for
``--seconds`` seconds, with ``PATHCALC_THREADS`` pinned to the number of CPUs
this process may use.  Every run is checked: it must not crash or exit 2,
``pathcalc replay`` of its output must return its exit code, and its
``aggregate.json`` must be byte-identical to the first run's.  With
``--trace 1`` the second half of the window runs with timing spans
installed around the layer functions (see spans.py) and the per-layer
metrics are printed instead of the end-to-end ones.  The last line of
standard output is the result as one JSON object; metric names and units
come from BENCHMARK.json at the checkout root.  README.md next to this file
says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s samples taken before the timed runs; one more follows each timed run.
SETUP_FIRST = 4

# Runs in a fresh interpreter: import of pathcalc.cli plus config load.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import argparse
import pathcalc.cli as cli
cli._load_config(sys.argv[2], argparse.Namespace(seed=None, paths=None, level=None, out=None))
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; it exits 2 without a result line."""


def import_pathcalc():
    """Import pathcalc.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "pathcalc" / "cli.py").is_file():
        raise BenchError(f"no pathcalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathcalc.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pathcalc":
        raise BenchError(f"pathcalc was imported from {cli.__file__}, not from {SRC}")
    return cli


def pin_threads() -> int:
    """Pin PATHCALC_THREADS to the usable CPUs; refuse a larger setting."""
    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ.get("PATHCALC_THREADS") or nproc)
    if not 1 <= threads <= nproc:
        raise BenchError(f"PATHCALC_THREADS={threads} is outside 1..nproc={nproc}")
    os.environ["PATHCALC_THREADS"] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "pathcalc_threads": threads,
        "machine": platform.machine(),
    }


def measure_setup(cfg_path: Path, repeats: int) -> list[float]:
    """Times, in fresh interpreters, of importing pathcalc.cli and loading the config."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(cfg_path)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def paths_done(aggregate: dict) -> int:
    """Paths one run simulated, from its aggregate.json.

    A compensator run's n_paths counts Monte Carlo paths per (model, Y) pair,
    and its aggregate lists one per-seed report per pair.
    """
    n = int(aggregate["config"]["n_paths"])
    return n * len(aggregate["per_seed"]) if aggregate["kind"] == "compensator" else n


# ---------------------------------------------------------------------------
# layer spans
# ---------------------------------------------------------------------------


def _points(args, result):
    return {"points": len(result)}


def _path_points(args, result):
    return {"points": result.n_points}


def _cells(args, result):
    return {"cells": max(len(result.times) - 1, 0)}


def _file_bytes(arg_index):
    return lambda args, result: {"bytes": os.path.getsize(args[arg_index])}


# (owner, attribute, span name, work count).  A function imported into
# several modules is patched in each, under one span name.
LAYER_SPANS = (
    ("cli", "simulate", "paths.simulate", _path_points),
    ("riemann", "simulate", "paths.simulate", _path_points),
    ("cli", "realized_qv", "paths.realized_qv", None),
    ("SamplePath", "to_csv", "cli.io.to_csv", _file_bytes(1)),
    ("cli", "dyadic_grid", "riemann.dyadic_grid", _points),
    ("riemann", "dyadic_grid", "riemann.dyadic_grid", _points),
    ("riemann", "hitting_grid", "riemann.hitting_grid", _points),
    ("riemann", "build_grid", "riemann.build_grid", None),
    ("riemann", "pathwise_sum", "riemann.pathwise_sum", None),
    ("cli", "limit_in_probability", "riemann.limit_in_probability", None),
    ("cli", "ito_decompose", "decompose.ito_decompose", _cells),
    ("cli", "tanaka_decompose", "decompose.tanaka_decompose", _cells),
    ("cli", "occupation_local_time", "decompose.occupation_local_time", None),
    ("cli", "verify_report", "decompose.verify_report", None),
    ("DecompositionReport", "series_csv", "cli.io.series_csv", None),
    ("compensator", "verify_compensator", "compensator.verify_compensator", None),
    ("compensator", "martingale_check", "compensator.martingale_check", None),
    ("cli", "_write_json", "cli.io.write_json", _file_bytes(0)),
)
SPAN_NAMES = {row[2] for row in LAYER_SPANS} | {"run", "cli.pool", "cli.seed"}
SPAN_FIELDS = ("calls", "self_s", "cpu_s", "points", "cells", "bytes")


def layer_patches(tracer: Tracer, cli) -> list:
    """Patches for the layer functions that pathcalc.cli, pathcalc.riemann and
    pathcalc.compensator look up at call time.

    The seed pool gets a ``cli.pool`` span in the calling thread and a
    ``cli.seed`` span around each worker call in the pool threads.
    """
    from pathcalc import compensator, decompose, paths, riemann

    owners = {"cli": cli, "riemann": riemann, "compensator": compensator,
              "SamplePath": paths.SamplePath,
              "DecompositionReport": decompose.DecompositionReport}

    def wrapper(name, count):
        return lambda original: tracer.wrap(name, original, count)

    def traced_pool(original):
        def map_seeds(cfg, worker):
            with tracer.span("cli.pool"):
                return original(cfg, tracer.wrap("cli.seed", worker))

        return map_seeds

    patches = [(owners[owner], attr, wrapper(name, count))
               for owner, attr, name, count in LAYER_SPANS]
    patches.append((cli, "_map_seeds", traced_pool))
    return patches


# ---------------------------------------------------------------------------
# checked runs
# ---------------------------------------------------------------------------


@dataclass
class Run:
    rc: int | None
    verdict_s: float
    output_bytes: int
    paths: int
    problem: str | None
    lines: list
    spans: dict = field(default_factory=dict)


class Runner:
    """Runs one config repeatedly into one output directory and checks each run.

    The output directory is the same for every run, because the config,
    output path included, is embedded in aggregate.json.
    """

    def __init__(self, cli, cfg: dict, work: Path, tag: str):
        self.cli = cli
        self.cfg_path = work / f"{tag}.json"
        self.cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.out = work / f"{tag}_out"
        self.kind_dir = self.out / cfg["kind"]
        self.reference = None
        self.runs: list[Run] = []

    def _main(self, argv, buf):
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            return self.cli.main(argv)

    def run(self, tracer: Tracer | None = None) -> Run:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", str(self.cfg_path), "--out", str(self.out)]
        buf = io.StringIO()
        rc = None
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed(layer_patches(tracer, self.cli)))
            gc.collect()  # the previous run's garbage is not this run's cost
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self._main(argv, buf)
                else:
                    with tracer.span("run"):
                        rc = self._main(argv, buf)
            except Exception:
                buf.write(traceback.format_exc())
            verdict_s = time.perf_counter() - t0
        run = Run(rc=rc, verdict_s=verdict_s, output_bytes=0, paths=0, problem=None,
                  lines=buf.getvalue().splitlines(),
                  spans=tracer.summary() if tracer is not None else {})
        run.problem = self._check(run)
        self.runs.append(run)
        return run

    def _check(self, run: Run) -> str | None:
        if run.rc is None:
            return "crashed: " + (run.lines[-1] if run.lines else "no output")
        if run.rc == 2:
            return "exit 2: " + " | ".join(run.lines[-3:])
        try:
            replay_rc = self._main(["replay", str(self.kind_dir)], io.StringIO())
        except Exception as exc:
            return f"replay crashed: {exc!r}"
        if replay_rc != run.rc:
            return f"replay exit {replay_rc} disagrees with run exit {run.rc}"
        aggregate = (self.kind_dir / "aggregate.json").read_bytes()
        if self.reference is None:
            self.reference = aggregate
        elif aggregate != self.reference:
            return "aggregate.json differs from the first run's"
        run.output_bytes = tree_bytes(self.out)
        run.paths = paths_done(json.loads(aggregate))
        return None

    def loop(self, budget: float, traced: bool = False, after_run=None) -> list[Run]:
        """Closed loop: start another run only while it is expected to end within budget.

        ``after_run`` is called between runs, outside the timed region.
        """
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(self.run(Tracer() if traced else None))
            if after_run is not None:
                after_run()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(runs) > budget:
                return runs


def report_run(name: str, phase: str, i: int, run: Run) -> None:
    """Print one line per run, plus its verdict FAIL lines exactly as pathcalc wrote them."""
    status = run.problem or "ok"
    print(f"{name} {phase} run {i}: exit {run.rc}, {run.verdict_s:.4f} s, {status}")
    for line in run.lines:
        if "FAIL" in line:
            print(f"  {line}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ok_runs(runs: list[Run]) -> list[Run]:
    """The runs that passed their checks, or all of them when none did."""
    good = [r for r in runs if r.problem is None]
    return good or runs


def end_to_end(untraced: list[Run], setup_s: float) -> dict:
    runs = _ok_runs(untraced)
    verdict_s = statistics.median(r.verdict_s for r in runs)
    return {
        "verdict_s": verdict_s,
        "paths_per_s": statistics.median(r.paths for r in runs) / verdict_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_mb": statistics.median(r.output_bytes for r in runs) / 1e6,
    }


def per_layer(untraced: list[Run], traced: list[Run], threads: int, names) -> dict:
    """Medians over traced runs of each span's summed self time, CPU time and counts."""
    traced = _ok_runs(traced)
    verdict_s = statistics.median(r.verdict_s for r in traced)
    untraced_s = statistics.median(r.verdict_s for r in _ok_runs(untraced))
    derived = {
        "cli.threads": threads,
        "cli.wait_s": statistics.median(
            sum(s["self_s"] - s["cpu_s"] for s in r.spans.values()) for r in traced),
        "cli.parallel_efficiency": statistics.median(
            sum(s["cpu_s"] for s in r.spans.values()) / (r.verdict_s * threads)
            for r in traced),
        "trace.overhead_frac": verdict_s / untraced_s - 1.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, key = name.rsplit(".", 1)
        if span not in SPAN_NAMES or key not in SPAN_FIELDS:
            raise KeyError(f"per-layer metric {name!r} names no span field")
        out[name] = statistics.median(r.spans.get(span, {}).get(key, 0) for r in traced)
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _named(values: dict, specs: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def bench(name: str, seed: int, seconds: float, trace: bool, work: Path,
          smoke: bool = False, setup_first: int = SETUP_FIRST, quiet: bool = False) -> dict:
    """Run one workload and return the result object that the last output line carries."""
    spec = load_spec()
    cli = import_pathcalc()
    threads = pin_threads()
    workload = WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(threads)
    (work / "env.json").write_text(json.dumps(env, indent=2) + "\n")

    cfg = workload.make_config(smoke=smoke)
    cfg["base_seed"] = 1000 * seed
    runner = Runner(cli, cfg, work, "run")

    # Warm-up at the smoke size: lazy imports and first-call costs land
    # outside the timed runs, and the run is checked like any other.
    warm_cfg = {**workload.make_config(smoke=True), "base_seed": cfg["base_seed"]}
    warm = Runner(cli, warm_cfg, work, "warmup")
    warm.run()
    if trace:
        untraced = runner.loop(seconds / 2)
        traced = runner.loop(seconds / 2, traced=True)
    else:
        # setup_s samples are spread over the whole window, so a short burst
        # of load on the machine moves their median no more than verdict_s.
        setup_times = measure_setup(runner.cfg_path, setup_first)
        untraced = runner.loop(seconds, after_run=lambda: setup_times.extend(
            measure_setup(runner.cfg_path, 1)))
        traced = []

    all_runs = warm.runs + runner.runs
    if not quiet:
        print("env " + json.dumps(env, sort_keys=True))
        for phase, runs in (("warmup", warm.runs), ("untraced", untraced), ("traced", traced)):
            for i, run in enumerate(runs):
                report_run(name, phase, i, run)
    (work / "runs.json").write_text(json.dumps(
        [{"rc": r.rc, "verdict_s": r.verdict_s, "problem": r.problem, "lines": r.lines}
         for r in all_runs], indent=2) + "\n")

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = _named(per_layer(untraced, traced, threads, names), spec["per_layer"])
    else:
        metrics = _named(end_to_end(untraced, statistics.median(setup_times)),
                         spec["end_to_end"])
    failed = sum(r.problem is not None for r in all_runs)
    return {"correct": failed == 0, "attempted": len(all_runs), "failed": failed,
            "metrics": metrics}


def smoke(work: Path) -> list[str]:
    """Every workload at its smoke size, untraced and traced; returns the problems found."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = bench(name, seed=1, seconds=0.01, trace=trace, work=work / name,
                           smoke=True, setup_first=1, quiet=True)
            label = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed runs")
            for metric, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{label}: {metric} = {m['value']!r}")
            print(f"{label}: {len(result['metrics'])} metrics, {result['attempted']} runs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metrics")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            problems = smoke(ROOT / ".perfbench_work" / "smoke")
            for p in problems:
                print(p, file=sys.stderr)
            return 1 if problems else 0
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                       ROOT / ".perfbench_work" / args.workload)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
