"""Byte identity of ``pathcalc run``'s outputs, against tests/golden/outputs.sha256."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from test_cli import _check_lines


def _golden():
    """tests/golden/rewrite_manifest.py, loaded by path."""
    path = Path(__file__).resolve().parent / "golden" / "rewrite_manifest.py"
    spec = importlib.util.spec_from_file_location("golden_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _golden()


def test_outputs_match_the_manifest_on_one_and_two_threads(tmp_path):
    trees = {}
    for threads in (1, 2):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        printed = golden.build(root, threads)
        for name, ((run_rc, run_out), (replay_rc, replay_out)) in printed.items():
            assert _check_lines(run_out), name
            assert (replay_rc, _check_lines(replay_out)) == (run_rc, _check_lines(run_out)), name
        trees[threads] = golden.hash_tree(root)
    assert trees[1] == trees[2]

    made_with, manifest = golden.read_manifest()
    if made_with != np.__version__:
        pytest.skip(f"the manifest was made with numpy {made_with}, this is numpy "
                    f"{np.__version__}, whose Generator streams may differ; the thread "
                    "and replay checks passed")
    assert trees[1] == manifest
