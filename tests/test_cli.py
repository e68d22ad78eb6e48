"""End-to-end tests of the experiment runner CLI."""

import argparse
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (DecompositionReport, SamplePath, cli, compensator, paths, riemann,
                      simulate)
from pathcalc.cli import _load_config, main
from pathcalc.paths import model_from_dict


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def qv_config(tmp_path, out="out", **overrides):
    # loose band: these configs exercise plumbing, not statistics
    cfg = {
        "schema_version": 1,
        "kind": "qv",
        "model": {"kind": "bm", "sigma": 1.0},
        "levels": [5, 6, 7],
        "n_paths": 16,
        "base_seed": 100,
        "n_steps": 512,
        "tolerances": {"qv_band": [0.5, 1.5]},
        "out_dir": str(tmp_path / out),
    }
    cfg.update(overrides)
    return write_config(tmp_path, f"qv_{out}.json", cfg)


class TestRun:
    def test_qv_run_layout_and_exit(self, tmp_path, capsys):
        rc = main(["run", qv_config(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "E[QV]" in out
        kind_dir = tmp_path / "out" / "qv"
        assert (kind_dir / "aggregate.json").exists()
        assert (kind_dir / "summary.txt").exists()
        # path CSVs are opt-in: a config without write_paths writes the reports alone
        assert {p.name for p in (kind_dir / "100").iterdir()} == {"report.json"}
        agg = json.loads((kind_dir / "aggregate.json").read_text())
        assert agg["config"]["write_paths"] is False
        summary = (kind_dir / "summary.txt").read_text()
        assert summary.strip().endswith("overall: PASS")

    def test_zero_size_jumps_at_level_40_give_a_verdict(self, tmp_path, capsys, monkeypatch):
        # a drawn jump of size 0 keeps its time point, so most of these 64-step grids miss
        # an index at the least level; their points are then tested one by one at level
        # 40, and no search asks for 2^40 + 1 targets
        searched, tested = [], []
        nearest, per_point = riemann._nearest_picks, riemann._held_picks

        def bounded(times, level):
            searched.append(level)
            assert level <= 8, level
            return nearest(times, level)

        monkeypatch.setattr(riemann, "_nearest_picks", bounded)
        monkeypatch.setattr(riemann, "_held_picks",
                            lambda times, level: tested.append(level) or per_point(times, level))
        model = {"kind": "jd", "sigma": 1.0, "rate": 50.0,
                 "law": {"kind": "two_point", "p": 0.5, "a1": 0.0, "a2": 1.0}}
        rc = main(["run", qv_config(tmp_path, model=model, levels=[5, 40], n_paths=20,
                                    n_steps=64)])
        assert rc in (0, 1) and searched and tested and set(tested) == {40}
        run_lines = _check_lines(capsys.readouterr().out)
        assert run_lines
        assert main(["replay", str(tmp_path / "out" / "qv")]) == rc
        assert _check_lines(capsys.readouterr().out) == run_lines

    def test_each_jump_path_is_searched_once_at_its_finest_level(self, tmp_path, monkeypatch):
        # the levels are asked finest first, so each coarser one strides the finest picks
        monkeypatch.setenv("PATHCALC_THREADS", "1")
        monkeypatch.setattr(riemann, "_picks", {})
        searched = []
        nearest = riemann._nearest_picks
        monkeypatch.setattr(riemann, "_nearest_picks",
                            lambda times, level: searched.append((times, level))
                            or nearest(times, level))
        model = {"kind": "jd", "sigma": 1.0, "rate": 6.0,
                 "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}}
        assert main(["run", qv_config(tmp_path, model=model, levels=[4, 6, 8], n_paths=4,
                                      tolerances={"qv_band": [0, 10]})]) == 0
        for (times, level), seed in zip(searched, range(100, 104), strict=True):
            path = simulate(model_from_dict(model), 512, 1.0, seed)
            assert len(path.jump_indices) > 0
            assert level == 8 and np.array_equal(times, path.times)

    def test_a_default_n_steps_at_level_40_gives_a_verdict(self, tmp_path, capsys):
        # the default n_steps is capped at 2^18, not 2^42 (a 32 TiB time grid); checked
        # before the run, so that a lost cap fails here and allocates nothing
        cfg = write_config(tmp_path, "qv.json", {
            "schema_version": 1, "kind": "qv", "model": {"kind": "bm"}, "levels": [40],
            "n_paths": 1, "out_dir": str(tmp_path / "out")})
        assert _load_config(cfg, NO_OVERRIDES)[1]["n_steps"] == 2**18
        rc = main(["run", cfg])
        assert rc in (0, 1)
        run_lines = _check_lines(capsys.readouterr().out)
        assert run_lines
        assert main(["replay", str(tmp_path / "out" / "qv")]) == rc
        assert _check_lines(capsys.readouterr().out) == run_lines

    def test_paths_csv_reads_back_as_the_simulated_path(self, tmp_path):
        model = {"kind": "jd", "sigma": 1.0, "drift": 0.1, "rate": 3.0,
                 "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}}
        main(["run", qv_config(tmp_path, model=model, n_paths=3, n_steps=2048,
                               write_paths=True)])
        for seed in (100, 101, 102):
            read = SamplePath.from_csv(tmp_path / "out" / "qv" / str(seed) / "paths.csv")
            simulated = simulate(model_from_dict(model), 2048, 1.0, seed)
            assert len(simulated.jump_indices) > 0
            for name in ("times", "values", "pre_values", "jump_indices", "jump_sizes"):
                assert getattr(read, name).tobytes() == getattr(simulated, name).tobytes()

    def test_byte_identical_aggregates(self, tmp_path):
        cfg = qv_config(tmp_path, out="a")
        main(["run", cfg])
        first = (tmp_path / "a" / "qv" / "aggregate.json").read_bytes()
        main(["run", cfg])
        second = (tmp_path / "a" / "qv" / "aggregate.json").read_bytes()
        assert first == second

    def test_ito_square_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ito.json", {
            "schema_version": 1, "kind": "ito",
            "model": {"kind": "bm", "sigma": 1.0},
            "function": {"name": "square"},
            "level": 8, "n_paths": 4, "base_seed": 3, "n_steps": 1024,
            "out_dir": str(tmp_path / "out_ito"),
        })
        assert main(["run", cfg]) == 0
        assert "max_residual: PASS" in capsys.readouterr().out

    def test_tanaka_negative_control_fails_with_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "neg.json", {
            "schema_version": 1, "kind": "tanaka",
            "model": {"kind": "bm", "sigma": 1.0},
            "function": {"name": "abs"},
            "level": 9, "n_paths": 3, "base_seed": 7, "n_steps": 2048,
            "negative_control": {"corrupt_g_sign": True},
            "out_dir": str(tmp_path / "out_neg"),
        })
        assert main(["run", cfg]) == 1
        run_lines = _check_lines(capsys.readouterr().out)
        assert any(line.startswith("max_residual_decrease: FAIL (") for line in run_lines)
        assert main(["replay", str(tmp_path / "out_neg" / "tanaka")]) == 1
        assert _check_lines(capsys.readouterr().out) == run_lines

    def test_summability_and_taylor_runners(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "summ.json", {
            "schema_version": 1, "kind": "summability", "n_draws": 200,
            "base_seed": 1, "out_dir": str(tmp_path / "out_s"),
        })
        assert main(["run", cfg]) == 0
        cfg = write_config(tmp_path, "taylor.json", {
            "schema_version": 1, "kind": "taylor",
            "base_seed": 1, "out_dir": str(tmp_path / "out_t"),
        })
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "telescoping_max_error: PASS" in out
        assert "identity_gap: PASS" in out

    def test_independence_runner(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "indep.json", {
            "schema_version": 1, "kind": "independence",
            "model": {"kind": "bm", "sigma": 1.0},
            "levels": [8, 9], "hitting_eps": [0.125, 0.0625],
            "n_paths": 30, "base_seed": 5, "n_steps": 4096,
            "tolerances": {"eps": 0.3, "delta": 0.05},
            "out_dir": str(tmp_path / "out_i"),
        })
        assert main(["run", cfg]) == 0
        assert "cross_scheme_tail: PASS" in capsys.readouterr().out

    def test_compensator_runner_small(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "comp.json", {
            "schema_version": 1, "kind": "compensator",
            "n_paths": 1500, "base_seed": 11, "out_dir": str(tmp_path / "out_c"),
        })
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "negative_control_fails: PASS" in out
        assert "martingale_increments: PASS" in out

    def test_compensator_outputs_do_not_depend_on_the_thread_count(self, tmp_path,
                                                                     monkeypatch):
        # out_dir is recorded in aggregate.json, so both runs write to a relative "out"
        cfg = write_config(tmp_path, "comp.json", {
            "schema_version": 1, "kind": "compensator", "n_paths": 300, "base_seed": 5,
            "out_dir": "out"})
        trees = []
        for threads in ("1", "3"):
            monkeypatch.setenv("PATHCALC_THREADS", threads)
            (tmp_path / threads).mkdir()
            monkeypatch.chdir(tmp_path / threads)
            main(["run", cfg])
            trees.append(_tree(Path("out", "compensator")))
        # 20 pairs, the martingale check, the negative control, the aggregate and the summary
        assert len(trees[0]) == 20 + 2 + 2
        assert {"aggregate.json", "summary.txt", "5/report.json", "26/report.json"} <= set(trees[0])
        assert trees[0] == trees[1]

    def test_each_pair_reports_the_draw_of_its_processs_first_seed(self, tmp_path):
        # a process draws once, from the seed of its first pair, and writes each pair's
        # report at that pair's own seed
        n_paths, T, base = 130, 0.7, 5
        cfg = write_config(tmp_path, "comp.json", {
            "schema_version": 1, "kind": "compensator", "n_paths": n_paths, "T": T,
            "base_seed": base, "out_dir": str(tmp_path / "out")})
        main(["run", cfg])
        ys = compensator.catalog_test_processes(T)
        for k, model in enumerate(compensator.catalog_models()):
            for j, y in enumerate(ys):
                seed = base + len(ys) * k + j
                verdict = compensator.verify_compensator(model, y, n_paths=n_paths, T=T,
                                                         seed=base + len(ys) * k)
                cli._write_json(tmp_path / "want.json",
                                {"seed": seed, "pair": verdict.to_json_dict()})
                report = tmp_path / "out" / "compensator" / str(seed) / "report.json"
                assert report.read_bytes() == (tmp_path / "want.json").read_bytes(), seed

    def test_runs_in_one_process_write_the_bytes_of_separate_runs(self, tmp_path, monkeypatch):
        # the time grid and the dyadic picks outlive each run's pool: one process runs
        # tanaka, then a jump diffusion whose paths mix jump-free and jump paths, then tanaka
        # again, each on new pool threads.  The second tanaka run builds no time grid and
        # searches no dyadic picks (the jd run's jump paths leave the shared time grid's picks
        # in place), and each run gives the exit code and every file of a run that starts with
        # empty caches
        monkeypatch.setenv("PATHCALC_THREADS", "2")
        jd = PARITY_CONFIGS["qv_jd"]
        model = model_from_dict(jd["model"])
        jumps = [len(simulate(model, jd["n_steps"], 1.0, seed).jump_indices)
                 for seed in range(2, 2 + jd["n_paths"])]
        assert 0 in jumps and max(jumps) > 0

        def run(name, where):
            cfg = write_config(tmp_path, f"{where}.json", {
                "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS[name], "out_dir": "out"})
            (tmp_path / where).mkdir()
            monkeypatch.chdir(tmp_path / where)
            rc = main(["run", cfg])
            assert rc in (0, 1)
            return rc, _tree(Path("out", PARITY_CONFIGS[name]["kind"]))

        def run_cold(name, where):
            paths._uniform_grid.cache_clear()
            monkeypatch.setattr(riemann, "_picks", {})
            return run(name, where)

        first = run_cold("tanaka_local_time", "first")
        misses = paths._uniform_grid.cache_info().misses
        mixed = run("qv_jd", "mixed")
        searched = []
        nearest = riemann._nearest_picks
        monkeypatch.setattr(riemann, "_nearest_picks",
                            lambda times, level: searched.append(level) or nearest(times, level))
        again = run("tanaka_local_time", "again")
        monkeypatch.setattr(riemann, "_nearest_picks", nearest)
        assert paths._uniform_grid.cache_info().misses == misses and searched == []
        assert "2/paths.csv" in first[1] and again == first
        assert "9/paths.csv" in mixed[1] and mixed == run_cold("qv_jd", "mixed_cold")

    def test_overrides(self, tmp_path):
        cfg = qv_config(tmp_path, out="ovr")
        assert main(["run", cfg, "--paths", "4", "--seed", "900",
                     "--out", str(tmp_path / "moved")]) == 0
        agg = json.loads((tmp_path / "moved" / "qv" / "aggregate.json").read_text())
        assert agg["config"]["n_paths"] == 4
        assert agg["config"]["base_seed"] == 900
        assert (tmp_path / "moved" / "qv" / "900").exists()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, "bad_kind.json",
                           {"schema_version": 1, "kind": "nope"})
        assert main(["run", bad]) == 2
        bad = write_config(tmp_path, "bad_schema.json",
                           {"schema_version": 99, "kind": "qv"})
        assert main(["run", bad]) == 2
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        bad = write_config(tmp_path, "bad_fn.json", {
            "schema_version": 1, "kind": "ito",
            "model": {"kind": "bm"}, "function": {"name": "unknown_fn"},
            "n_paths": 1, "out_dir": str(tmp_path / "x"),
        })
        assert main(["run", bad]) == 2
        err = capsys.readouterr().err
        assert "config error" in err


def _seed_tree(kind_dir: Path) -> dict:
    """The bytes of every file under the seed directories of ``kind_dir``."""
    return {name: data for name, data in _tree(kind_dir).items() if "/" in name}


class TestCompensatorConfigs:
    """Any compensator config within small sizes gives a verdict that ``replay`` repeats,
    with seed files that do not depend on the thread count."""

    @settings(max_examples=10, deadline=None)
    @given(n_paths=st.integers(1, 300), T=st.floats(1e-300, 5.0),
           base_seed=st.integers(0, 2**64 - 22), rate_factor=st.floats(-3.0, 3.0))
    def test_run_replay_and_threads_agree(self, n_paths, T, base_seed, rate_factor):
        with tempfile.TemporaryDirectory() as tmp:
            trees = []
            for threads in ("1", "2"):
                out = Path(tmp, f"out{threads}")
                cfg = write_config(Path(tmp), f"comp{threads}.json", {
                    "schema_version": 1, "kind": "compensator", "n_paths": n_paths, "T": T,
                    "base_seed": base_seed, "negative_control": {"rate_factor": rate_factor},
                    "out_dir": str(out)})
                with mock.patch.dict(os.environ, {"PATHCALC_THREADS": threads}):
                    rc = main(["run", cfg])
                assert rc in (0, 1)
                assert main(["replay", str(out)]) == rc
                trees.append(_seed_tree(out / "compensator"))
            assert len(trees[0]) == 22
            assert trees[0] == trees[1]


_FUNCTIONS = [{"name": name} for name in ("abs", "square", "cos", "sign", "relu")] + [
    {"name": "piecewise_linear", "breakpoints": [0.0], "slopes": [-1.0, 1.0]}]
_TOLERANCE = st.sampled_from([-1.0, 0.0, 1e-8, 0.1, 10.0])
_EDGE_LEVELS = st.sampled_from([0, 1, 5, 9, 12, 40, 60])
# a value for each key that the kinds declare, by its dotted name: small sizes and edge values
_KEY_VALUES = {
    "base_seed": st.sampled_from([0, 7, 2**64 - 1]),
    "n_paths": st.integers(1, 3),
    "n_steps": st.sampled_from([1, 2, 7, 64, 512]),
    "T": st.sampled_from([1e-9, 0.5, 1.0, 5.0]),
    "write_paths": st.booleans(),
    "model": st.sampled_from([
        {"kind": "bm"}, {"kind": "bm", "sigma": 0.0, "drift": 1.0, "x0": -3.0},
        {"kind": "cpj", "rate": 0.0, "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
        {"kind": "cpj", "rate": 5.0, "law": {"kind": "two_point", "p": 0.5, "a1": 0.3,
                                             "a2": -0.4}},
        # half its drawn jumps are of size 0, so its grids miss an index at the least level
        {"kind": "jd", "rate": 50.0, "law": {"kind": "two_point", "p": 0.5, "a1": 0.0,
                                             "a2": 1.0}},
        {"kind": "jd", "sigma": 2.0, "drift": -1.0, "rate": 3.0,
         "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
        {"kind": "fv", "knots_t": [0.0, 0.3, 1.0], "knots_x": [0.0, 1.5, -0.5]}]),
    "levels": st.lists(_EDGE_LEVELS, min_size=1, max_size=3, unique=True).map(sorted),
    "level": _EDGE_LEVELS,
    "function": st.sampled_from(_FUNCTIONS),
    "g": st.sampled_from(_FUNCTIONS),
    "hitting_eps": st.lists(st.sampled_from([1.0, 0.25, 0.05, 1e-4]), min_size=1, max_size=3,
                            unique=True).map(lambda v: sorted(v, reverse=True)),
    "functions": st.lists(st.sampled_from(["abs", "square", "cube", "sign", "cos"]),
                          min_size=1, max_size=3),
    "n_draws": st.sampled_from([1, 2, 50]),
    "entries": st.lists(st.fixed_dictionaries({
        "function": st.sampled_from(_FUNCTIONS), "a": st.sampled_from([-2.0, 0.0, 1.0]),
        "b": st.sampled_from([0.0, 1.0, 2.0]), "k": st.integers(0, 4)}), min_size=1, max_size=2),
    "negative_control.corrupt_g_sign": st.booleans(),
    "local_time.level": st.sampled_from([-1.0, 0.0, 0.5]),
    "local_time.eps": st.sampled_from([1e-6, 0.05, 0.2]),
    "tolerances.qv_band": st.sampled_from([[0, 10], [1.5, 0.5], [0.95, 1.05]]),
    **{f"tolerances.{key}": _TOLERANCE for key in ("limit", "exact", "identity_gap", "residual",
                                                   "jump", "local_time_rel", "eps", "delta")},
}


@st.composite
def _kind_config(draw, kind):
    """A config of ``kind`` from its declared keys: the required ones, ``n_steps`` and
    ``n_paths`` where declared, and each other one or not."""
    def draw_keys(keys, prefix):
        out = {}
        for key, (typ, default) in keys.items():
            name = prefix + key
            if default is cli._REQUIRED or name in ("n_steps", "n_paths") or draw(st.booleans()):
                out[key] = (draw_keys(typ, name + ".") if isinstance(typ, dict)
                            else draw(_KEY_VALUES[name]))
        return out
    return draw_keys({"base_seed": cli._COMMON["base_seed"], **cli._KEYS[kind]}, "")


class TestKindConfigs:
    """Any config of a kind other than compensator, within small sizes, gives a verdict that
    ``replay`` repeats, or a config error that leaves no output."""

    @pytest.mark.parametrize("kind", ["qv", "ito", "tanaka", "independence", "summability",
                                      "taylor"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), threads=st.sampled_from(["1", "2"]))
    def test_a_verdict_or_exit_2(self, kind, data, threads):
        cfg = {"schema_version": 1, "kind": kind, **data.draw(_kind_config(kind))}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            path = write_config(Path(tmp), "cfg.json", {**cfg, "out_dir": str(out)})
            with mock.patch.dict(os.environ, {"PATHCALC_THREADS": threads}):
                rc = main(["run", path])
            assert rc in (0, 1, 2)
            if rc == 2:
                assert not (out / kind).exists()
            else:
                assert main(["replay", str(out / kind)]) == rc


class TestReplay:
    def test_fresh_report_replays_identically(self, tmp_path, capsys):
        main(["run", qv_config(tmp_path, out="rp")])
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "rp" / "qv")]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_replay_accepts_parent_dir(self, tmp_path):
        main(["run", qv_config(tmp_path, out="rp2")])
        assert main(["replay", str(tmp_path / "rp2")]) == 0

    def test_tampered_value_flips_verdict(self, tmp_path):
        main(["run", qv_config(tmp_path, out="tam")])
        agg_dir = tmp_path / "tam" / "qv"
        seed_report = agg_dir / "100" / "report.json"
        row = json.loads(seed_report.read_text())
        row["qv"]["7"] = 50.0
        seed_report.write_text(json.dumps(row))
        assert main(["replay", str(agg_dir)]) == 1

    def test_missing_files_exit_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "nowhere")]) == 2
        main(["run", qv_config(tmp_path, out="gone")])
        (tmp_path / "gone" / "qv" / "100" / "report.json").unlink()
        assert main(["replay", str(tmp_path / "gone" / "qv")]) == 2


class TestCatalogCommand:
    def test_lists_functions(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("abs", "square", "x_abs_x_half", "sign_primitive", "piecewise_linear"):
            assert name in out

    def test_lists_the_declared_models_laws_and_compensator_pairs(self, capsys):
        """Models and laws with their parameters, as their key tables declare them, and
        the increasing and test processes that a compensator run checks."""
        assert main(["catalog"]) == 0
        lines = {line.strip() for line in capsys.readouterr().out.splitlines()}
        for kind, (_, keys) in {**paths._MODELS, **paths._LAWS}.items():
            line = next(line for line in lines if line.startswith(f"{kind}("))
            assert all(key in line for key in keys), line
        assert "jd(sigma=1.0, drift=0.0, rate, law, x0=0.0)" in lines
        assert ("piecewise_linear(breakpoints, slopes, y0=0.0): continuous piecewise linear, "
                "f(0) = y0") in lines
        for entry in compensator.catalog_models() + compensator.catalog_test_processes():
            assert entry.label in lines
        out = "\n".join(lines)
        # Y = 0 compares 0 with 0 at SE 0, a pair that cannot fail
        assert "deterministic" not in out and "tanh" not in out and "const(0.0)" not in out


BM = {"kind": "bm", "sigma": 1.0}
# the path kinds write their CSVs, so that tests/test_golden.py pins those bytes too
PARITY_CONFIGS = {
    "summability": {"kind": "summability", "n_draws": 50},
    "taylor": {"kind": "taylor"},
    "qv": {"kind": "qv", "model": BM, "levels": [4, 5, 6], "n_paths": 4, "n_steps": 256,
           "write_paths": True},
    # compound Poisson jumps; a loose band, as 4 paths test plumbing
    "qv_cpj": {"kind": "qv", "model": {"kind": "cpj", "rate": 3.0,
                                       "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
               "levels": [4, 5, 6], "n_paths": 4, "n_steps": 256, "write_paths": True,
               "tolerances": {"qv_band": [0, 3]}},
    # a jump diffusion at rate 0.5: of seeds 2 to 9, three draw no jump and take the
    # process's time grid and dyadic picks, and the others own their time grids
    "qv_jd": {"kind": "qv", "model": {"kind": "jd", "sigma": 1.0, "rate": 0.5,
                                      "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
              "levels": [5, 6, 7], "n_paths": 8, "n_steps": 512, "write_paths": True,
              "tolerances": {"qv_band": [0, 3]}},
    "ito": {"kind": "ito", "model": BM, "function": {"name": "square"},
            "level": 6, "n_paths": 2, "n_steps": 256, "write_paths": True},
    "ito_inapplicable": {"kind": "ito", "model": BM, "function": {"name": "sign"},
                         "level": 6, "n_paths": 2, "n_steps": 256, "write_paths": True},
    "tanaka_local_time": {"kind": "tanaka", "model": BM, "function": {"name": "abs"},
                          "level": 7, "n_paths": 3, "n_steps": 512,
                          "local_time": {"level": 0.0, "eps": 0.2}, "write_paths": True},
    "compensator": {"kind": "compensator", "n_paths": 200},
    "independence": {"kind": "independence", "model": BM, "levels": [5, 6],
                     "hitting_eps": [0.25, 0.125], "n_paths": 4, "n_steps": 512,
                     "tolerances": {"eps": 1.0, "delta": 1.0}},
}


def _check_lines(text):
    return [line for line in text.splitlines() if ": PASS (" in line or ": FAIL (" in line]


@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
def test_replay_prints_the_run_verdicts(tmp_path, capsys, name):
    cfg = write_config(tmp_path, f"{name}.json", {
        "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS[name],
        "out_dir": str(tmp_path / "out"),
    })
    run_rc = main(["run", cfg])
    run_out = capsys.readouterr().out
    run_lines = _check_lines(run_out)
    replay_rc = main(["replay", str(tmp_path / "out")])
    replay_lines = _check_lines(capsys.readouterr().out)
    assert run_lines
    assert replay_lines == run_lines
    assert replay_rc == run_rc
    summary = tmp_path / "out" / PARITY_CONFIGS[name]["kind"] / "summary.txt"
    assert summary.read_text() == run_out


@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
def test_per_seed_layout(tmp_path, name):
    """Every seed directory holds the report that the aggregate lists, and nothing else
    but the kind's extra files."""
    cfg = write_config(tmp_path, f"{name}.json", {
        "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS[name],
        "out_dir": str(tmp_path / "out"),
    })
    main(["run", cfg])
    kind = PARITY_CONFIGS[name]["kind"]
    kind_dir = tmp_path / "out" / kind
    per_seed = json.loads((kind_dir / "aggregate.json").read_text())["per_seed"]
    seed_dirs = {p.name for p in kind_dir.iterdir() if p.is_dir()}
    assert set(per_seed) == seed_dirs
    extras = {"qv": {"paths.csv"}, "ito": {"paths.csv", "decomposition.csv"},
              "tanaka": {"paths.csv", "decomposition.csv"}}
    for seed, rel in per_seed.items():
        assert rel == f"{seed}/report.json"
        files = {p.name for p in (kind_dir / seed).iterdir()}
        assert files == {"report.json"} | extras.get(kind, set())


def _tree(directory):
    return {f.relative_to(directory).as_posix(): f.read_bytes()
            for f in sorted(directory.rglob("*")) if f.is_file()}


def _verdict_words(text):
    """Each check's name with its PASS or FAIL, and the overall line."""
    return [line.split(" (")[0] for line in text.splitlines()
            if ": PASS" in line or ": FAIL" in line]


class TestRecompute:
    """``replay --recompute`` runs the recorded config again and compares every seed file
    byte for byte with the recorded one."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_a_fresh_run_matches(self, tmp_path, capsys, monkeypatch, name, threads):
        # the run uses the other pool size: no seed file depends on it
        monkeypatch.setenv("PATHCALC_THREADS", "2" if threads == "1" else "1")
        cfg = write_config(tmp_path, f"{name}.json", {
            "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS[name],
            "out_dir": str(tmp_path / "out")})
        run_rc = main(["run", cfg])
        run_lines = _check_lines(capsys.readouterr().out)
        kind_dir = tmp_path / "out" / PARITY_CONFIGS[name]["kind"]
        before = _tree(kind_dir)
        monkeypatch.setenv("PATHCALC_THREADS", threads)
        assert main(["replay", "--recompute", str(kind_dir)]) == run_rc
        out = capsys.readouterr().out
        assert _check_lines(out) == run_lines
        assert out.splitlines()[-1] == "recompute: every seed file matches"
        assert _tree(kind_dir) == before

    def test_an_edit_within_the_band_fails_only_the_recompute(self, tmp_path, capsys):
        main(["run", qv_config(tmp_path)])
        kind_dir = tmp_path / "out" / "qv"
        run_words = _verdict_words((kind_dir / "summary.txt").read_text())
        report = kind_dir / "103" / "report.json"
        row = json.loads(report.read_text())
        row["qv"]["7"] += 1e-9
        cli._write_json(report, row)
        capsys.readouterr()
        assert main(["replay", str(kind_dir)]) == 0
        graded = capsys.readouterr().out
        assert _verdict_words(graded) == run_words
        assert main(["replay", "--recompute", str(kind_dir)]) == 1
        assert capsys.readouterr().out == graded + "recompute: 103/report.json differs\n"

    def test_a_missing_or_extra_file_differs(self, tmp_path, capsys):
        main(["run", qv_config(tmp_path, write_paths=True)])
        kind_dir = tmp_path / "out" / "qv"
        (kind_dir / "101" / "paths.csv").unlink()
        (kind_dir / "104" / "notes.txt").write_text("a file that no run writes\n")
        capsys.readouterr()
        assert main(["replay", "--recompute", str(kind_dir)]) == 1
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("recompute: ")] == ["recompute: 101/paths.csv differs",
                                                       "recompute: 104/notes.txt differs"]

    def test_a_rerun_into_the_same_out_replaces_the_earlier_run(self, tmp_path, capsys):
        main(["run", qv_config(tmp_path, n_paths=3, write_paths=True)])
        kind_dir = tmp_path / "out" / "qv"
        assert (kind_dir / "102" / "paths.csv").exists()
        run_rc = main(["run", qv_config(tmp_path, n_paths=3), "--paths", "2"])
        # only the second run's files: no paths.csv and no seed directory 102
        assert sorted(_tree(kind_dir)) == ["100/report.json", "101/report.json",
                                           "aggregate.json", "summary.txt"]
        capsys.readouterr()
        # two paths may FAIL the Cauchy check: the exit code is the grade's, as the run's
        assert main(["replay", "--recompute", str(kind_dir)]) == run_rc
        assert capsys.readouterr().out.splitlines()[-1] == "recompute: every seed file matches"

    def test_a_deleted_seed_report_exits_2(self, tmp_path, capsys):
        main(["run", qv_config(tmp_path)])
        kind_dir = tmp_path / "out" / "qv"
        (kind_dir / "105" / "report.json").unlink()
        capsys.readouterr()
        assert main(["replay", "--recompute", str(kind_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unreadable aggregate or report: ")
        assert captured.out == ""

    def test_a_recorded_config_that_the_runner_rejects_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tanaka.json", {
            "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS["tanaka_local_time"],
            "out_dir": str(tmp_path / "out")})
        main(["run", cfg])
        agg_path = tmp_path / "out" / "tanaka" / "aggregate.json"
        agg = json.loads(agg_path.read_text())
        # below the path's resolution: the grade reads the reports, the runner rejects it
        agg["config"]["local_time"]["eps"] = 1e-6
        agg_path.write_text(json.dumps(agg))
        capsys.readouterr()
        assert main(["replay", "--recompute", str(agg_path.parent)]) == 2
        assert capsys.readouterr().err.startswith("error: recompute: eps=1e-06")


class TestMalformedAggregate:
    @pytest.fixture
    def agg_path(self, tmp_path):
        main(["run", qv_config(tmp_path, out="mal")])
        return tmp_path / "mal" / "qv" / "aggregate.json"

    @pytest.mark.parametrize("corrupt", [
        lambda agg: agg.update(per_seed=[]),
        lambda agg: agg.update(per_seed=["100/report.json"]),
        lambda agg: agg["per_seed"].update({"100": 100}),
        lambda agg: agg["per_seed"].pop("115"),
        lambda agg: agg["per_seed"].update({"116": "116/report.json"}),
        lambda agg: agg.update(kind="ito"),
        lambda agg: agg.pop("config"),
        lambda agg: agg["config"].update(kind="ito"),
        lambda agg: agg["config"].update(schema_version=2),
    ], ids=["per_seed_empty_list", "per_seed_list", "per_seed_number", "per_seed_short",
            "per_seed_long", "kind_not_the_configs", "no_config", "config_of_another_kind",
            "config_schema_version"])
    def test_replay_reports_an_error_and_exits_2(self, agg_path, capsys, corrupt):
        agg = json.loads(agg_path.read_text())
        corrupt(agg)
        agg_path.write_text(json.dumps(agg))
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["[1]", "1", "null"])
    def test_aggregate_that_is_not_an_object_exits_2(self, agg_path, capsys, text):
        agg_path.write_text(text)
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_unparsable_seed_report_exits_2(self, agg_path, capsys):
        (agg_path.parent / "100" / "report.json").write_text("{broken")
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda row: row.update(qv={"7": "1.0"}), "'qv.7' of a per-seed report must be a number"),
        (lambda row: row.update(qv=[1.0]), "'qv.5' of a per-seed report runs through [1.0]"),
    ], ids=["string_leaf", "leaf_under_a_list"])
    def test_malformed_reports_exit_2(self, agg_path, capsys, corrupt, message):
        report = agg_path.parent / "100" / "report.json"
        row = json.loads(report.read_text())
        corrupt(row)
        report.write_text(json.dumps(row))
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_report_that_is_not_an_object_exits_2(self, agg_path, capsys):
        (agg_path.parent / "100" / "report.json").write_text("[1.0]")
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        assert capsys.readouterr().err.startswith("error: 'qv.5' of a per-seed report runs "
                                                  "through [1.0]")

    def test_type_error_inside_a_grading_function_propagates(self, agg_path, capsys,
                                                             monkeypatch):
        def broken(cfg, rows):
            raise TypeError("bug inside a grading function")

        monkeypatch.setitem(cli._KIND_FUNCTIONS, "qv", (cli._run_qv, broken))
        capsys.readouterr()
        with pytest.raises(TypeError, match="bug inside a grading function"):
            main(["replay", str(agg_path.parent)])
        assert "error" not in capsys.readouterr().err

    def test_aggregate_of_another_version_exits_2(self, agg_path, capsys):
        """An aggregate of version 1 held recompute rules, which replay no longer reads."""
        agg = json.loads(agg_path.read_text())
        agg["schema_version"] = 1
        agg["checks"][0]["recompute"] = {"stat": "all_true", "key": "verdict.passed"}
        agg_path.write_text(json.dumps(agg))
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unsupported aggregate schema_version 1\n"
        assert captured.out == ""

    def test_aggregate_that_recorded_write_paths_auto_exits_2(self, agg_path, capsys):
        """Runs before path CSVs became opt-in recorded the default ``"auto"``, which no
        config accepts now."""
        agg = json.loads(agg_path.read_text())
        agg["config"]["write_paths"] = "auto"
        agg_path.write_text(json.dumps(agg))
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: malformed aggregate: its config: write_paths must be "
                                "true or false, got 'auto'\n")
        assert captured.out == ""

    def test_replay_grades_the_reports_not_the_recorded_checks(self, agg_path, capsys):
        run_lines = _check_lines((agg_path.parent / "summary.txt").read_text())
        agg = json.loads(agg_path.read_text())
        for check in agg["checks"]:
            check.update(value=None, op="ge", bound="anything", passed=False)
        agg["checks"].append("a check")
        agg_path.write_text(json.dumps(agg))
        capsys.readouterr()
        assert main(["replay", str(agg_path.parent)]) == 0
        assert _check_lines(capsys.readouterr().out) == run_lines


@pytest.mark.parametrize("name", ["summability", "taylor", "qv", "ito", "tanaka_local_time",
                                  "compensator", "independence"])
@pytest.mark.parametrize("corrupt, message", [
    (lambda agg: agg["config"].update(unknown_key=1), "unknown key 'unknown_key'"),
    (lambda agg: agg["config"].update(base_seed="2"), "base_seed must be an integer"),
    (lambda agg: agg.update(per_seed={}), "its kind and per_seed must be its config's"),
], ids=["config_unknown_key", "config_wrong_type", "per_seed_empty"])
def test_replay_of_a_malformed_aggregate_exits_2(tmp_path, capsys, name, corrupt, message):
    cfg = write_config(tmp_path, f"{name}.json", {
        "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS[name],
        "out_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) in (0, 1)
    agg_path = tmp_path / "out" / PARITY_CONFIGS[name]["kind"] / "aggregate.json"
    agg = json.loads(agg_path.read_text())
    corrupt(agg)
    agg_path.write_text(json.dumps(agg))
    capsys.readouterr()
    assert main(["replay", str(agg_path.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed aggregate: ")
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("name", ["ito", "tanaka_local_time"])
def test_replay_of_a_recorded_identity_gap_tolerance_exits_2(tmp_path, capsys, name):
    """The ito and tanaka kinds declare no tolerances.identity_gap: their identity gap is
    graded against the rounding floor alone, so an aggregate that recorded one does not
    resolve."""
    cfg = write_config(tmp_path, f"{name}.json", {
        "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS[name],
        "out_dir": str(tmp_path / "out")})
    main(["run", cfg])
    agg_path = tmp_path / "out" / PARITY_CONFIGS[name]["kind"] / "aggregate.json"
    agg = json.loads(agg_path.read_text())
    agg["config"]["tolerances"]["identity_gap"] = 1e-8
    agg_path.write_text(json.dumps(agg))
    capsys.readouterr()
    assert main(["replay", str(agg_path.parent)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: malformed aggregate: its config: unknown key 'identity_gap' in tolerances")
    assert captured.out == ""


# passing decomposition runs; a loose local-time tolerance, as 3 paths test plumbing
GRADED_CONFIGS = {
    "ito": PARITY_CONFIGS["ito"],
    "tanaka": {**PARITY_CONFIGS["tanaka_local_time"], "tolerances": {"local_time_rel": 5.0}},
}


class TestDecompositionChecksFollowTheReports:
    """Every ito and tanaka check is recomputed from the numbers of the per-seed reports."""

    def _run(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, f"{kind}.json", {
            "schema_version": 1, "base_seed": 2, **GRADED_CONFIGS[kind],
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        return tmp_path / "out" / kind

    @pytest.mark.parametrize("kind, key, failing", [
        ("ito", "summary.max_abs_residual", ["max_residual"]),
        ("ito", "summary.max_identity_gap", ["identity_gap_floor"]),
        ("tanaka", "summary.max_identity_gap", ["identity_gap_floor"]),
        ("tanaka", "summary.max_residual_decrease", ["max_residual_decrease"]),
        ("tanaka", "summary.max_jump_cell_residual", ["max_jump_cell_residual"]),
        ("tanaka", "local_time.a_c_final", ["local_time_mean_rel_err"]),
    ], ids=["ito_max_residual", "ito_identity_gap_floor", "tanaka_identity_gap_floor",
            "tanaka_max_residual_decrease", "tanaka_max_jump_cell_residual",
            "tanaka_local_time_mean_rel_err"])
    def test_editing_one_reports_number_fails_its_check(self, tmp_path, capsys, kind, key,
                                                          failing):
        self._edit_and_replay(tmp_path, capsys, kind, key, lambda v: 100.0 * v + 1.0,
                              failing)

    @pytest.mark.parametrize("kind", ["ito", "tanaka"])
    def test_a_gap_above_the_floor_fails_the_floor_alone(self, tmp_path, capsys, kind):
        # 1e-9 is above the rounding floor (1e-10), and no tolerance loosens that bound
        self._edit_and_replay(tmp_path, capsys, kind, "summary.max_identity_gap",
                              lambda v: 1e-9, ["identity_gap_floor"])

    def _edit_and_replay(self, tmp_path, capsys, kind, key, edit, failing):
        """Edit one number of seed 3's report, and see replay FAIL exactly ``failing``."""
        kind_dir = self._run(tmp_path, capsys, kind)
        agg = json.loads((kind_dir / "aggregate.json").read_text())
        assert set(failing) <= {c["name"] for c in agg["checks"]}
        assert main(["replay", str(kind_dir)]) == 0
        capsys.readouterr()
        report = kind_dir / "3" / "report.json"
        row = json.loads(report.read_text())
        assert "verdict" not in row
        _edit(row, key, edit)
        report.write_text(json.dumps(row))
        assert main(["replay", str(kind_dir)]) == 1
        lines = _check_lines(capsys.readouterr().out)
        assert [line.split(":")[0] for line in lines if ": FAIL (" in line] == failing

    # the tanaka run at level 0 FAILs its local time alone: one cell holds every crossing
    @pytest.mark.parametrize("kind, level, failing", [
        ("ito", 0, []), ("ito", 1, []), ("tanaka", 0, ["local_time_mean_rel_err"]),
    ])
    def test_identity_gap_floor_is_declared_at_every_level(self, tmp_path, capsys, kind, level,
                                                           failing):
        cfg = write_config(tmp_path, f"{kind}.json", {
            "schema_version": 1, "base_seed": 2, **GRADED_CONFIGS[kind], "level": level,
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == (1 if failing else 0)
        lines = _check_lines(capsys.readouterr().out)
        assert [line.split(":")[0] for line in lines if ": FAIL (" in line] == failing
        kind_dir = tmp_path / "out" / kind
        agg = json.loads((kind_dir / "aggregate.json").read_text())
        floor = [c for c in agg["checks"] if c["name"] == "identity_gap_floor"]
        assert len(floor) == 1 and floor[0]["bound"] == 1e-10 and floor[0]["passed"]
        # the floor is graded from the finest report alone: no coarser level is recorded
        for report in kind_dir.glob("*/report.json"):
            assert "identity_gap_growth" not in json.loads(report.read_text())

    def test_a_level_past_every_index_gives_a_verdict(self, tmp_path, capsys, monkeypatch):
        # level 40 would be 2^40 + 1 dyadic targets; a 512-step path has every index in
        # its grid from level 10 on, and no finer level is searched
        searched = []
        nearest = riemann._nearest_picks

        def bounded(times, level):
            searched.append(level)
            assert level <= 12, level
            return nearest(times, level)

        monkeypatch.setattr(riemann, "_nearest_picks", bounded)
        cfg = write_config(tmp_path, "tanaka.json", {
            "schema_version": 1, "base_seed": 2, **GRADED_CONFIGS["tanaka"], "level": 40,
            "out_dir": str(tmp_path / "out")})
        # every index in the grid: the loose local-time tolerance passes, as at level 7
        assert main(["run", cfg]) == 0 and searched
        run_lines = _check_lines(capsys.readouterr().out)
        kind_dir = tmp_path / "out" / "tanaka"
        assert main(["replay", str(kind_dir)]) == 0
        assert _check_lines(capsys.readouterr().out) == run_lines
        row = json.loads((kind_dir / "2" / "report.json").read_text())
        assert row["summary"]["grid"]["param"] == 40.0
        assert row["summary"]["grid"]["n_cells"] == 512

    def test_editing_the_summability_report_fails_its_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "summ.json", {
            "schema_version": 1, "base_seed": 2, **PARITY_CONFIGS["summability"],
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        kind_dir = tmp_path / "out" / "summability"
        report = kind_dir / "2" / "report.json"
        row = json.loads(report.read_text())
        row["additivity_max_error"] = 1.0
        report.write_text(json.dumps(row))
        capsys.readouterr()
        assert main(["replay", str(kind_dir)]) == 1
        assert "additivity_max_error: FAIL (value=1.0, le 0.0002)" in capsys.readouterr().out


def _edit(entry, dotted, edit):
    """Set the value at a dotted key path (list indices as numbers) to ``edit(value)``."""
    *parents, leaf = [int(k) if k.isdecimal() else k for k in dotted.split(".")]
    for key in parents:
        entry = entry[key]
    entry[leaf] = edit(entry[leaf])


# passing runs of the kinds graded from Monte Carlo and expansion reports; the independence
# tolerances let an edited estimate FAIL the run
MONTE_CARLO_CONFIGS = {
    "compensator": PARITY_CONFIGS["compensator"],
    "independence": {**PARITY_CONFIGS["independence"], "tolerances": {"eps": 1.0, "delta": 0.5}},
    "taylor": PARITY_CONFIGS["taylor"],
}


class _ColumnRead(Exception):
    pass


class TestDecompositionRunsReadNoColumn:
    """An ito or tanaka run without path CSVs takes every number that it writes from the
    report's summary, so no report builds a column: the column builder and ``times``
    raise here, and only a run that writes ``decomposition.csv`` reaches them."""

    @pytest.fixture
    def no_columns(self, monkeypatch):
        def column_read(*args):
            raise _ColumnRead

        monkeypatch.setattr(DecompositionReport, "_columns", column_read)
        monkeypatch.setattr(DecompositionReport, "times", property(column_read))

    @pytest.mark.parametrize("name", ["ito", "tanaka_local_time"])
    def test_without_path_csvs(self, tmp_path, no_columns, name):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], "write_paths": False,
            "out_dir": str(tmp_path / "out")})
        # 3 tanaka paths may FAIL the local-time check: a verdict either way
        assert main(["run", cfg]) in (0, 1)
        kind = PARITY_CONFIGS[name]["kind"]
        report = json.loads((tmp_path / "out" / kind / "0" / "report.json").read_text())
        assert report["summary"]["applicable"]
        assert ("local_time" in report) == (kind == "tanaka")

    @pytest.mark.parametrize("name", ["ito", "tanaka_local_time"])
    def test_with_path_csvs(self, tmp_path, no_columns, name):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], "write_paths": True,
            "out_dir": str(tmp_path / "out")})
        with pytest.raises(_ColumnRead):
            main(["run", cfg])


class TestMonteCarloChecksFollowTheReports:
    """The compensator, independence and taylor checks are recomputed from the numbers of
    the per-seed reports: editing one number moves its check, and only its check."""

    @pytest.mark.parametrize("kind, seed, key, edit, failed", [
        ("compensator", 2, "pair.diff", lambda v: 1e6,
         ["poisson_counting(rate=3.0) x const(1.0): FAIL (value=1000000.0, le "]),
        ("compensator", 21, "pair.se_combined", lambda v: None,
         ["path_qv(jd(sigma=0.8,drift=0.1,rate=1.0)) x state(sign): FAIL (value=None, le inf)"]),
        ("compensator", 22, "martingale.increments.1.mean_increment", lambda v: 1e6,
         ["martingale_increments: FAIL (value=False, true True)"]),
        ("compensator", 23, "negative_control.diff", lambda v: 0.0,
         ["negative_control_fails: FAIL (value=False, true True)"]),
        ("compensator", 23, "negative_control.diff", lambda v: None,
         ["negative_control_fails: FAIL (value=None, true True)"]),
        ("independence", 2, "estimates.hitting", lambda v: [[x + 10 for x in p] for p in v],
         ["cross_scheme_tail: FAIL (value=1.0, le 0.5)", "verdict: FAIL (value=False, true True)"]),
        ("taylor", 2, "expansions.0.identity_gap", lambda v: 1.0,
         ["square[0.0,2.0]k=2 identity_gap: FAIL (value=1.0, le 1e-08)"]),
        ("taylor", 2, "expansions.1.bound_ok", lambda v: False,
         ["cube[0.0,1.0]k=3 remainder_bound: FAIL (value=False, true True)"]),
    ], ids=["compensator_pair", "compensator_pair_without_se", "compensator_martingale",
            "compensator_negative_control", "compensator_negative_control_without_diff",
            "independence_estimates", "taylor_identity_gap", "taylor_remainder_bound"])
    def test_editing_one_reports_number_fails_its_check(self, tmp_path, capsys, kind, seed, key,
                                                          edit, failed):
        cfg = write_config(tmp_path, f"{kind}.json", {
            "schema_version": 1, "base_seed": 2, **MONTE_CARLO_CONFIGS[kind],
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 0
        run_lines = _check_lines(capsys.readouterr().out)
        kind_dir = tmp_path / "out" / kind
        report = kind_dir / str(seed) / "report.json"
        row = json.loads(report.read_text())
        _edit(row, key, edit)
        report.write_text(json.dumps(row))
        assert main(["replay", str(kind_dir)]) == 1
        lines = _check_lines(capsys.readouterr().out)
        changed = [line for line in lines if line not in run_lines]
        assert len(changed) == len(failed) and len(lines) == len(run_lines)
        assert all(line.startswith(prefix) for line, prefix in zip(changed, failed)), changed


class TestRunnerInputErrors:
    """Inputs that the library rejects end a run with a config error and exit 2."""

    @pytest.mark.parametrize("overrides", [
        {"hitting_eps": [1e-6]},
        {"hitting_eps": []},
        {"hitting_eps": [float("nan"), 0.25]},
    ], ids=["eps_below_resolution", "no_eps", "nan_eps"])
    def test_independence(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, "indep.json", {
            "schema_version": 1, **PARITY_CONFIGS["independence"], **overrides,
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "Traceback" not in captured.err

    def test_tanaka_local_time_eps_below_resolution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tanaka.json", {
            "schema_version": 1, **PARITY_CONFIGS["tanaka_local_time"],
            "local_time": {"level": 0.0, "eps": 1e-6}, "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: eps=1e-06")

    def test_a_rejected_config_leaves_the_earlier_run_as_it_was(self, tmp_path, capsys):
        cfg = {"schema_version": 1, **PARITY_CONFIGS["tanaka_local_time"],
               "out_dir": str(tmp_path / "out")}
        main(["run", write_config(tmp_path, "tanaka.json", cfg)])
        before = _tree(tmp_path / "out")
        rejected = write_config(tmp_path, "rejected.json", {
            **cfg, "local_time": {"level": 0.0, "eps": 1e-6}})
        capsys.readouterr()
        assert main(["run", rejected]) == 2
        assert capsys.readouterr().err.startswith("config error: eps=1e-06")
        # every file of the earlier run, byte for byte, and no directory that the rejected
        # run made
        assert _tree(tmp_path / "out") == before
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["tanaka"]

    @pytest.mark.parametrize("earlier", [False, True], ids=["new_out_dir", "earlier_run"])
    def test_a_rejected_config_leaves_no_directory_that_it_made(self, tmp_path, capsys,
                                                                 earlier):
        # <out_dir> two levels below a directory that exists
        cfg = {"schema_version": 1, **PARITY_CONFIGS["tanaka_local_time"],
               "out_dir": str(tmp_path / "new" / "out")}
        if earlier:
            main(["run", write_config(tmp_path, "tanaka.json", cfg)])
        before = _tree(tmp_path / "new")
        rejected = write_config(tmp_path, "rejected.json", {
            **cfg, "local_time": {"level": 0.0, "eps": 1e-6}})
        capsys.readouterr()
        assert main(["run", rejected]) == 2
        assert capsys.readouterr().err.startswith("config error: eps=1e-06")
        if earlier:
            assert _tree(tmp_path / "new") == before
            assert [p.name for p in (tmp_path / "new" / "out").iterdir()] == ["tanaka"]
        else:
            assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("name, change, message", [
        ("qv", {"model": {"kind": "cpj"}}, "missing key 'rate'"),
        ("qv", {"model": None}, "missing key 'model'"),
        ("qv", {"model": {"kind": "jd", "rate": 1.0, "law": {"lo": 0.0, "hi": 1.0}}},
         "missing key 'kind'"),
        ("tanaka_local_time", {"function": None}, "missing key 'function'"),
        ("taylor", {"entries": [{"function": {"name": "square"}, "a": 0.0, "b": 1.0}]},
         "missing key 'k'"),
        ("qv", {"model": {"kind": "bm", "sigma": "1"}}, ""),
        ("qv", {"tolerances": {"qv_band": 5}}, ""),
        ("tanaka_local_time", {"function": "abs"}, ""),
        ("ito", {"level": -1}, "level must be >= 0"),
        ("tanaka_local_time", {"level": -1}, "level must be >= 0"),
    ], ids=["cpj_without_rate", "no_model", "law_without_kind", "no_function",
            "taylor_entry_without_k", "string_sigma", "scalar_qv_band", "string_function",
            "ito_negative_level", "tanaka_negative_level"])
    def test_malformed_config(self, tmp_path, capsys, name, change, message):
        cfg = {"schema_version": 1, **PARITY_CONFIGS[name], **change,
               "out_dir": str(tmp_path / "out")}
        cfg = {k: v for k, v in cfg.items() if v is not None}
        assert main(["run", write_config(tmp_path, "bad.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["false", "true", 0, None, "never", "auto"])
    def test_write_paths_is_true_or_false(self, tmp_path, capsys, value):
        assert main(["run", qv_config(tmp_path, write_paths=value)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: write_paths must be true or false, got {value!r}")
        assert not (tmp_path / "out" / "qv").exists()

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        assert main(["run", write_config(tmp_path, "list.json", [1, 2])]) == 2
        assert capsys.readouterr().err.startswith("config error: config must be a JSON object")


class TestConfigDefaults:
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", qv_config(tmp_path), "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err
        summ = write_config(tmp_path, "summ.json", {
            "schema_version": 1, "kind": "summability", "n_draws": 5,
            "out_dir": str(tmp_path / "summ")})
        assert main(["run", summ, "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("model, expected", [
        ({"kind": "bm", "sigma": 1.0}, [0.95, 1.05]),
        ({"kind": "bm", "sigma": 2.0}, [3.8, 4.2]),
        # sigma^2 + rate E[J^2] = 1 + 3 / 3 = 2
        ({"kind": "jd", "sigma": 1.0, "drift": 0.0, "rate": 3.0,
          "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}}, [1.9, 2.1]),
    ])
    def test_default_qv_band_is_five_percent_of_the_closed_form(self, tmp_path, model, expected):
        cfg = write_config(tmp_path, "qv.json", {
            "schema_version": 1, "kind": "qv", "model": model, "levels": [4, 5],
            "n_paths": 2, "n_steps": 64, "out_dir": str(tmp_path / "out")})
        main(["run", cfg])
        agg = json.loads((tmp_path / "out" / "qv" / "aggregate.json").read_text())
        assert agg["checks"][0]["bound"] == pytest.approx(expected, rel=1e-15)
        assert agg["checks"][0]["name"] == f"E[QV]_1 in {agg['checks'][0]['bound']}"

    def test_compensator_defaults_to_ten_thousand_paths(self, tmp_path, monkeypatch):
        n_paths = []
        # verify_compensator, which the negative control calls, is the one-Y verify_process
        for name in ("verify_process", "martingale_check"):
            original = getattr(compensator, name)
            monkeypatch.setattr(compensator, name, lambda *args, original=original, **kwargs:
                                n_paths.append(kwargs["n_paths"]) or original(*args, **kwargs))
        cfg = write_config(tmp_path, "comp.json", {
            "schema_version": 1, "kind": "compensator", "out_dir": str(tmp_path / "out")})
        main(["run", cfg])
        agg = json.loads((tmp_path / "out" / "compensator" / "aggregate.json").read_text())
        assert agg["config"]["n_paths"] == 10_000 and len(agg["per_seed"]) == 22
        # one draw per process, the martingale check's and the negative control's
        assert n_paths == [10_000] * (len(compensator.catalog_models()) + 2) == [10_000] * 7

    @pytest.mark.parametrize("level, n_steps", [(0, 4), (7, 2**9), (16, 2**18), (40, 2**18)])
    @pytest.mark.parametrize("name", ["qv", "independence", "ito", "tanaka_local_time"])
    def test_default_n_steps_is_four_cells_per_finest_cell_up_to_2_18(self, tmp_path, name,
                                                                        level, n_steps):
        cfg = {k: v for k, v in PARITY_CONFIGS[name].items() if k != "n_steps"}
        path = write_config(tmp_path, "cfg.json", {"schema_version": 1, **cfg})
        # --level sets level, or levels as [level]
        overrides = argparse.Namespace(**{**vars(NO_OVERRIDES), "level": level})
        assert _load_config(path, overrides)[1]["n_steps"] == n_steps

    def test_other_kinds_default_to_one_path(self, tmp_path):
        cfg = write_config(tmp_path, "qv.json", {
            "schema_version": 1, "kind": "qv", "model": BM, "levels": [4, 5],
            "n_steps": 64, "out_dir": str(tmp_path / "out")})
        main(["run", cfg])
        agg = json.loads((tmp_path / "out" / "qv" / "aggregate.json").read_text())
        assert agg["config"]["n_paths"] == 1 and list(agg["per_seed"]) == ["0"]

    @pytest.mark.parametrize("function", [
        {"name": "abs", "scale": 5},
        {"name": "piecewise_linear", "breakpoints": [0.0]},
        {"name": "piecewise_linear", "breakpoints": [0.0], "slopes": [-1.0, 1.0], "shift": 1},
    ])
    def test_bad_function_parameters_are_config_errors(self, tmp_path, capsys, function):
        cfg = write_config(tmp_path, "tanaka.json", {
            "schema_version": 1, "kind": "tanaka", "model": BM, "function": function,
            "level": 5, "n_paths": 1, "n_steps": 64, "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err


def _benchmark_workloads():
    """The benchmark's workloads, loaded from perfbench/workloads.py by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOAD_CONFIGS = {
    f"{name}{'_smoke' if smoke else ''}": w.make_config(smoke)
    for name, w in _benchmark_workloads().items() for smoke in (False, True)
}
NO_OVERRIDES = argparse.Namespace(seed=None, paths=None, level=None, out=None)


class TestConfigKeys:
    """Each kind's config is checked against its declared keys before any output exists."""

    @pytest.mark.parametrize("cfg", [
        *WORKLOAD_CONFIGS.values(),
        *({"schema_version": 1, "base_seed": 2, **c} for c in PARITY_CONFIGS.values()),
    ], ids=[*WORKLOAD_CONFIGS, *(f"parity_{name}" for name in PARITY_CONFIGS)])
    def test_benchmark_and_test_configs_load(self, tmp_path, cfg):
        recorded, resolved = _load_config(write_config(tmp_path, "cfg.json", cfg), NO_OVERRIDES)
        assert {k: recorded[k] for k in cfg} == cfg
        assert resolved["kind"] == cfg["kind"]

    @pytest.mark.parametrize("change, key", [
        ({"tolerance": {"qv_band": [0, 100]}}, "unknown key 'tolerance' in the qv config"),
        ({"tolerances": {"qvband": [0, 100]}}, "unknown key 'qvband' in tolerances"),
        ({"model": {"kind": "bm", "rate": 3.0}}, "unknown key 'rate' in a bm path model"),
        ({"n_steps": "512"}, "n_steps must be an integer"),
        ({"n_steps": 512.0}, "n_steps must be an integer"),
        ({"levels": []}, "levels must be a non-empty list of integers"),
        ({"T": True}, "T must be a number"),
        ({"base_seed": "1"}, "base_seed must be an integer"),
        ({"out_dir": 3}, "out_dir must be a string"),
    ], ids=["top_level", "in_tolerances", "in_model", "string_n_steps", "float_n_steps",
            "no_levels", "bool_T", "string_seed", "number_out_dir"])
    def test_unknown_keys_and_wrong_types_exit_2_before_any_output(self, tmp_path, capsys,
                                                                    change, key):
        assert main(["run", qv_config(tmp_path, **change)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not (tmp_path / "out" / "qv").exists()

    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_n_draws_below_one_is_a_config_error(self, tmp_path, capsys, n_draws):
        cfg = write_config(tmp_path, "summ.json", {
            "schema_version": 1, "kind": "summability", "n_draws": n_draws,
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: n_draws must be an integer >= 1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, recorded", [
        ("ito", {"level": 3}),
        ("tanaka_local_time", {"level": 3}),
        ("qv", {"levels": [3]}),
        ("independence", {"levels": [3]}),
    ])
    def test_level_sets_only_the_key_the_kind_reads(self, tmp_path, name, recorded):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], "out_dir": str(tmp_path / "out")})
        main(["run", cfg, "--level", "3"])
        kind = PARITY_CONFIGS[name]["kind"]
        config = json.loads((tmp_path / "out" / kind / "aggregate.json").read_text())["config"]
        assert {k: config[k] for k in ("level", "levels") if k in config} == recorded

    @pytest.mark.parametrize("name", ["compensator", "summability", "taylor"])
    def test_level_on_a_kind_without_levels_is_a_config_error(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg, "--level", "3"]) == 2
        assert capsys.readouterr().err.startswith("config error: --level does not apply")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_pathcalc_threads_must_be_a_positive_integer(self, tmp_path, capsys, monkeypatch,
                                                         value):
        monkeypatch.setenv("PATHCALC_THREADS", value)
        assert main(["run", qv_config(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: PATHCALC_THREADS must be a positive integer, got {value!r}")
        assert not (tmp_path / "out").exists()

    def test_default_threads_are_the_usable_cpus_up_to_eight(self, monkeypatch):
        monkeypatch.delenv("PATHCALC_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert cli._threads() == 2
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(12)))
        assert cli._threads() == 8
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._threads() == 8
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._threads() == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._threads() == 1

    def test_library_type_error_is_not_a_config_error(self, tmp_path, capsys, monkeypatch):
        def broken(grid):
            raise TypeError("bug inside realized_qv")

        monkeypatch.setattr(cli, "realized_qv", broken)
        with pytest.raises(TypeError, match="bug inside realized_qv"):
            main(["run", qv_config(tmp_path)])
        assert "config error" not in capsys.readouterr().err


def _out_exists(tmp_path):
    return (tmp_path / "out").exists()


class TestRefinementOrder:
    """Refinement lists run from coarse to fine, and a bad one, like a ``T``, ``n_steps``,
    local-time ``eps`` or ``base_seed`` out of its range or a model that its class rejects,
    ends the run before any output exists."""

    @pytest.mark.parametrize("name, change, message", [
        ("qv", {"levels": [6, 4]}, "levels must be a non-empty list of integers"),
        ("qv", {"levels": [4, 4]}, "levels must be a non-empty list of integers"),
        ("qv", {"levels": [-1, 4]}, "levels must be a non-empty list of integers"),
        ("independence", {"levels": [6, 5], "hitting_eps": [0.125, 0.25]},
         "levels must be a non-empty list of integers"),
        ("independence", {"hitting_eps": [0.125, 0.25]}, "hitting_eps must be a non-empty list"),
        ("independence", {"hitting_eps": [0.25, 0.25]}, "hitting_eps must be a non-empty list"),
        ("independence", {"hitting_eps": [0.25, -0.125]}, "hitting_eps must be a non-empty list"),
        ("independence", {"hitting_eps": [0.25, 0]}, "hitting_eps must be a non-empty list"),
        ("independence", {"hitting_eps": []}, "hitting_eps must be a non-empty list"),
        ("independence", {"hitting_eps": [0.25, float("nan")]}, "config must hold only finite"),
        ("ito", {"level": -1}, "level must be >= 0"),
        ("tanaka_local_time", {"level": -1}, "level must be >= 0"),
        ("ito", {"level": 1.5}, "level must be an integer"),
        ("qv", {"T": 0}, "T must be a number > 0, got 0"),
        ("qv", {"T": -1.0}, "T must be a number > 0, got -1.0"),
        ("ito", {"T": -0.5}, "T must be a number > 0"),
        ("independence", {"T": 0.0}, "T must be a number > 0"),
        ("compensator", {"T": 0}, "T must be a number > 0"),
        ("qv", {"n_steps": 0}, "n_steps must be an integer >= 1, got 0"),
        ("independence", {"n_steps": -4}, "n_steps must be an integer >= 1"),
        ("tanaka_local_time", {"n_steps": 0}, "n_steps must be an integer >= 1"),
        ("tanaka_local_time", {"local_time": {"level": 0.0, "eps": 0}},
         "eps must be a number > 0, got 0"),
        ("tanaka_local_time", {"local_time": {"eps": -0.2}}, "eps must be a number > 0"),
        ("qv", {"base_seed": -1}, "base_seed must be an integer in [0, 2**64), got -1"),
        ("qv", {"base_seed": 2**64}, "base_seed must be an integer in [0, 2**64)"),
        ("qv", {"base_seed": 2**64 - 1, "n_paths": 2},
         "base_seed must leave room below 2**64 for the run's 2 seeds, got 18446744073709551615"),
        ("compensator", {"base_seed": 2**64 - 21},
         "base_seed must leave room below 2**64 for the run's 22 seeds"),
        ("independence", {"base_seed": 2**64 - 3},
         "base_seed must leave room below 2**64 for the run's 4 seeds"),
        ("qv", {"model": {"kind": "fv", "knots_t": [0, 1], "knots_x": [0, 1, 2]}},
         "knots_x must hold one value per knot of knots_t"),
        ("qv", {"model": {"kind": "jd", "rate": 3.0,
                          "law": {"kind": "normal", "mean": 0.0, "std": 0.8}}},
         "unknown jump law kind 'normal'"),
    ], ids=["qv_decreasing", "qv_repeated", "qv_negative", "independence_levels_decreasing",
            "eps_increasing", "eps_repeated", "eps_negative", "eps_zero", "eps_empty", "eps_nan",
            "ito_negative_level", "tanaka_negative_level", "fractional_level",
            "qv_zero_T", "qv_negative_T", "ito_negative_T", "independence_zero_T",
            "compensator_zero_T", "qv_zero_steps", "independence_negative_steps",
            "tanaka_zero_steps", "zero_local_time_eps", "negative_local_time_eps",
            "negative_seed", "seed_past_philox", "qv_last_seed_past_philox",
            "compensator_last_seed_past_philox", "independence_last_seed_past_philox",
            "fv_knot_counts", "normal_law"])
    def test_exits_2_before_any_output(self, tmp_path, capsys, name, change, message):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], **change,
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not _out_exists(tmp_path)

    @pytest.mark.parametrize("name, change", [
        ("qv", {"base_seed": 2**64 - 2, "n_paths": 2}),
        ("compensator", {"base_seed": 2**64 - 22}),
        ("independence", {"base_seed": 2**64 - 4}),
    ], ids=["qv", "compensator", "independence"])
    def test_a_last_seed_of_2_64_minus_1_gives_a_verdict(self, tmp_path, capsys, name, change):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], **change,
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) in (0, 1)
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("name, message", [
        ("ito", "level must be >= 0"),
        ("qv", "levels must be a non-empty list of integers"),
    ])
    def test_negative_level_override_exits_2_before_any_output(self, tmp_path, capsys, name,
                                                               message):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg, "--level", "-1"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not _out_exists(tmp_path)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# abs has no second derivative at 0, so the k = 3 expansion on [-1, 1] has a NaN gap
TAYLOR_ABS_K3 = {"kind": "taylor",
                 "entries": [{"function": {"name": "abs"}, "a": -1.0, "b": 1.0, "k": 3}]}


class TestStrictJson:
    @pytest.mark.parametrize("cfg", [*PARITY_CONFIGS.values(), TAYLOR_ABS_K3],
                             ids=[*PARITY_CONFIGS, "taylor_abs_k3"])
    def test_every_json_file_is_strict_and_replay_prints_the_run_lines(self, tmp_path, capsys,
                                                                      cfg):
        path = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "base_seed": 2, **cfg, "out_dir": str(tmp_path / "out")})
        run_rc = main(["run", path])
        run_lines = _check_lines(capsys.readouterr().out)
        files = sorted((tmp_path / "out").rglob("*.json"))
        assert files
        for f in files:
            json.loads(f.read_text(), parse_constant=_reject_constant)
            assert '"recompute"' not in f.read_text()
        replay_rc = main(["replay", str(tmp_path / "out")])
        assert _check_lines(capsys.readouterr().out) == run_lines
        assert replay_rc == run_rc

    @pytest.mark.parametrize("cfg, nulls", [
        (PARITY_CONFIGS["ito_inapplicable"], ["max_residual", "identity_gap_floor"]),
        (TAYLOR_ABS_K3, ["abs[-1.0,1.0]k=3 identity_gap"]),
    ], ids=["ito_inapplicable", "taylor_abs_k3"])
    def test_a_check_that_is_not_finite_is_null_and_fails(self, tmp_path, capsys, cfg, nulls):
        path = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "base_seed": 2, **cfg, "out_dir": str(tmp_path / "out")})
        assert main(["run", path]) == 1
        out = capsys.readouterr().out
        agg = json.loads((tmp_path / "out" / cfg["kind"] / "aggregate.json").read_text())
        checks = {c["name"]: c for c in agg["checks"]}
        for name in nulls:
            assert checks[name]["value"] is None and not checks[name]["passed"]
            assert f"{name}: FAIL (value=None, " in out

    def test_write_json_writes_floats_that_are_not_finite_as_null(self, tmp_path):
        target = tmp_path / "new" / "x.json"
        cli._write_json(target, {
            "nan": float("nan"), "list": [np.float64("inf"), np.float32("-inf"), 1.5, 2],
            "tuple": (np.float32("nan"),), "nested": {"ok": np.float64(0.25), "flag": True}})
        assert json.loads(target.read_text(), parse_constant=_reject_constant) == {
            "nan": None, "list": [None, None, 1.5, 2], "tuple": [None],
            "nested": {"ok": 0.25, "flag": True}}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.nan])
    def test_check_of_a_value_that_is_not_finite_fails(self, value):
        check = cli._check("x", value, "le", 1.0)
        assert check["value"] is None and check["passed"] is False

    def test_null_leaf_of_a_report_reads_as_a_missing_number(self, tmp_path, capsys):
        main(["run", qv_config(tmp_path)])
        report = tmp_path / "out" / "qv" / "100" / "report.json"
        row = json.loads(report.read_text())
        row["qv"]["7"] = None
        report.write_text(json.dumps(row))
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "out" / "qv")]) == 1
        assert ": FAIL (value=None, in [0.5, 1.5])" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_config_number_that_is_not_finite_is_a_config_error(self, tmp_path, capsys, text):
        cfg = Path(qv_config(tmp_path))
        cfg.write_text(cfg.read_text().replace('"qv_band": [0.5, 1.5]',
                                               f'"qv_band": [0.5, {text}]'))
        assert text in cfg.read_text()
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: config must hold only finite")
        assert not _out_exists(tmp_path)


class _ReadLog(dict):
    """A resolved config that adds the dotted name of every key read from it to ``read``."""

    def __init__(self, cfg, read, prefix=""):
        super().__init__({k: _ReadLog(v, read, f"{prefix}{k}.") if isinstance(v, dict) else v
                          for k, v in cfg.items()})
        self.read, self.prefix = read, prefix

    def __getitem__(self, key):
        self.read.add(self.prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(self.prefix + key)
        return super().get(key, default)


def _declared(keys, prefix=""):
    """The dotted names of a declaration's keys: nested tables by leaf, an empty table as one."""
    names = set()
    for name, (typ, _) in keys.items():
        if isinstance(typ, dict) and typ:
            names |= _declared(typ, f"{prefix}{name}.")
        else:
            names.add(prefix + name)
    return names


LOCAL_TIME = {"local_time": {"level": 0.0, "eps": 0.2}}
# one config per kind, with its optional features on
READ_CONFIGS = {
    "summability": PARITY_CONFIGS["summability"],
    "taylor": PARITY_CONFIGS["taylor"],
    "qv": PARITY_CONFIGS["qv"],
    "ito": {**PARITY_CONFIGS["ito"], "n_steps": 512},
    "tanaka": PARITY_CONFIGS["tanaka_local_time"],
    "compensator": PARITY_CONFIGS["compensator"],
    "independence": PARITY_CONFIGS["independence"],
}

# the defaults that aggregate.json records beside the config as written
RECORDED_DEFAULTS = {
    "summability": {"tolerances": {}},
    "taylor": {"tolerances": {}},
    "qv": {"T": 1.0, "tolerances": {}, "write_paths": False},
    "ito": {"T": 1.0, "tolerances": {}, "write_paths": False},
    "tanaka": {"T": 1.0, "tolerances": {}, "write_paths": False},
    "compensator": {"T": 1.0},
    "independence": {"T": 1.0},
}


class TestDeclaredKeys:
    """Each kind declares the keys that its run reads, and only those."""

    @pytest.mark.parametrize("kind", sorted(READ_CONFIGS))
    def test_the_run_reads_every_declared_key(self, tmp_path, monkeypatch, kind):
        read = set()
        load = cli._load_config

        def logged(path, overrides):
            recorded, cfg = load(path, overrides)
            return recorded, _ReadLog(cfg, read)

        monkeypatch.setattr(cli, "_load_config", logged)
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, "base_seed": 2, **READ_CONFIGS[kind],
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) in (0, 1)
        declared = _declared({**cli._COMMON, **cli._KEYS[kind]})
        # _load_config checks schema_version on the config as written
        assert declared - {"schema_version"} <= read, declared - read

    @pytest.mark.parametrize("name, change, message", [
        ("summability", {"n_paths": 5}, "unknown key 'n_paths' in the summability config"),
        ("summability", {"T": 7.0}, "unknown key 'T' in the summability config"),
        ("summability", {"write_paths": True},
         "unknown key 'write_paths' in the summability config"),
        ("taylor", {"n_paths": 5}, "unknown key 'n_paths' in the taylor config"),
        ("taylor", {"T": 7.0}, "unknown key 'T' in the taylor config"),
        ("taylor", {"write_paths": True}, "unknown key 'write_paths' in the taylor config"),
        ("compensator", {"write_paths": True},
         "unknown key 'write_paths' in the compensator config"),
        ("compensator", {"tolerances": {}}, "unknown key 'tolerances' in the compensator config"),
        ("independence", {"write_paths": False},
         "unknown key 'write_paths' in the independence config"),
        ("ito", {"tolerances": {"jump": 1e-3}}, "unknown key 'jump' in tolerances"),
        ("ito", LOCAL_TIME, "unknown key 'local_time' in the ito config"),
        ("ito", {"tolerances": {"local_time_rel": 0.1}},
         "unknown key 'local_time_rel' in tolerances"),
    ], ids=["summability_n_paths", "summability_T", "summability_write_paths", "taylor_n_paths",
            "taylor_T", "taylor_write_paths", "compensator_write_paths",
            "compensator_tolerances", "independence_write_paths", "ito_jump", "ito_local_time",
            "ito_local_time_rel"])
    def test_a_key_the_kind_does_not_read_is_unknown(self, tmp_path, capsys, name, change,
                                                     message):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], **change,
            "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not _out_exists(tmp_path)

    def test_tanaka_declares_the_jump_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS["tanaka_local_time"],
            "tolerances": {"jump": 1e-3}})
        assert _load_config(cfg, NO_OVERRIDES)[1]["tolerances"]["jump"] == 1e-3

    @pytest.mark.parametrize("name", ["summability", "taylor"])
    def test_paths_on_a_kind_without_n_paths_is_a_config_error(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, "cfg.json", {
            "schema_version": 1, **PARITY_CONFIGS[name], "out_dir": str(tmp_path / "out")})
        assert main(["run", cfg, "--paths", "5"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: --paths does not apply to the {name} kind")
        assert not _out_exists(tmp_path)

    @pytest.mark.parametrize("kind", sorted(READ_CONFIGS))
    def test_recorded_config_is_the_config_with_the_declared_defaults(self, tmp_path, kind):
        cfg = {"schema_version": 1, "base_seed": 2, **READ_CONFIGS[kind],
               "out_dir": str(tmp_path / "out")}
        main(["run", write_config(tmp_path, "cfg.json", cfg)])
        agg = json.loads((tmp_path / "out" / kind / "aggregate.json").read_text())
        assert agg["config"] == {**RECORDED_DEFAULTS[kind], **cfg}
