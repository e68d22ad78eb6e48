"""Golden outputs of ``pathcalc run``: build them, hash them, rewrite the manifest.

Each golden config runs in its own directory with the relative ``out_dir``
``out``, since ``aggregate.json`` records ``out_dir``.  Beside ``out/`` the
run's printed lines go to ``stdout.txt`` and its exit code to ``exit_code``.
``outputs.sha256`` next to this file holds the SHA-256 of every file in
those directories, in ``sha256sum`` format, under a first line that names
the numpy version that made it (numpy gives no stream guarantee for
``Generator`` across versions).  ``tests/test_golden.py`` checks the
outputs against it.

Rewrite the manifest, from the root of a checkout, with::

    PYTHONPATH=src python tests/golden/rewrite_manifest.py

A change that rewrites it should say which files changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "outputs.sha256"
sys.path.insert(0, str(HERE.parent))

from pathcalc.cli import main  # noqa: E402
from test_cli import PARITY_CONFIGS, WORKLOAD_CONFIGS  # noqa: E402

# the test configs at base seed 2, the benchmark's workloads at smoke size at base seed 1000
CONFIGS = {
    **{f"parity_{name}": {"schema_version": 1, **cfg, "base_seed": 2}
       for name, cfg in PARITY_CONFIGS.items()},
    **{f"workload_{name[:-len('_smoke')]}": {**cfg, "base_seed": 1000}
       for name, cfg in WORKLOAD_CONFIGS.items() if name.endswith("_smoke")},
}


def _main(argv):
    """``main(argv)``'s exit code and printed lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@contextlib.contextmanager
def _inside(directory: Path, threads: int):
    """Run in ``directory`` with a seed pool of ``threads`` threads."""
    cwd, env = os.getcwd(), os.environ.get("PATHCALC_THREADS")
    os.chdir(directory)
    os.environ["PATHCALC_THREADS"] = str(threads)
    try:
        yield
    finally:
        os.chdir(cwd)
        if env is None:
            del os.environ["PATHCALC_THREADS"]
        else:
            os.environ["PATHCALC_THREADS"] = env


def build(root: Path, threads: int) -> dict:
    """Run every golden config under ``root``; for each, the run's and the replay's
    (exit code, printed lines)."""
    root, printed = root.resolve(), {}
    for name, cfg in CONFIGS.items():
        config = root / f"{name}.json"
        config.write_text(json.dumps({**cfg, "out_dir": "out"}))
        (root / name).mkdir()
        with _inside(root / name, threads):
            run_rc, run_out = _main(["run", str(config)])
            (root / name / "stdout.txt").write_text(run_out)
            (root / name / "exit_code").write_text(f"{run_rc}\n")
            printed[name] = (run_rc, run_out), _main(["replay", f"out/{cfg['kind']}"])
    return printed


def hash_tree(root: Path) -> dict:
    """SHA-256 of every file under the config directories of ``root``, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for name in CONFIGS for path in sorted((root / name).rglob("*")) if path.is_file()
    }


def read_manifest():
    """The numpy version that made the manifest, and its hashes by relative path."""
    first, *rows = MANIFEST.read_text().splitlines()
    return first.removeprefix("# numpy "), {
        rel: h for h, rel in (row.split("  ", 1) for row in rows)}


def write_manifest(hashes: dict) -> None:
    rows = [f"# numpy {np.__version__}"] + [f"{h}  {rel}" for rel, h in sorted(hashes.items())]
    MANIFEST.write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp), threads=1)
        write_manifest(hash_tree(Path(tmp)))
    print(f"wrote {MANIFEST}")
