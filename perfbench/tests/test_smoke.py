"""Smoke mode, the thread pin, and the refusal to run without sources."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run


def test_smoke_gives_every_named_metric_finite(tmp_path):
    assert run.smoke(tmp_path) == []


def test_result_line_names_exactly_the_benchmark_metrics(tmp_path):
    spec = run.load_spec()
    result = run.bench("compensator_mc", seed=2, seconds=0.01, trace=False, work=tmp_path,
                       smoke=True, setup_first=1, quiet=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]


def test_threads_above_nproc_are_refused(monkeypatch):
    nproc = len(os.sched_getaffinity(0))
    monkeypatch.setenv("PATHCALC_THREADS", str(nproc + 1))
    with pytest.raises(run.BenchError):
        run.pin_threads()
    monkeypatch.delenv("PATHCALC_THREADS")
    assert run.pin_threads() == nproc
    assert os.environ["PATHCALC_THREADS"] == str(nproc)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qv_jd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no pathcalc sources" in proc.stderr
