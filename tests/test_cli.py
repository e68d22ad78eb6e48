"""End-to-end tests of the experiment runner CLI."""

import json
from pathlib import Path

import pytest

from pathcalc.cli import main


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
        assert (kind_dir / "100" / "report.json").exists()
        assert (kind_dir / "100" / "paths.csv").exists()
        summary = (kind_dir / "summary.txt").read_text()
        assert summary.strip().endswith("overall: PASS")

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
        assert "FAIL" in capsys.readouterr().out

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


BM = {"kind": "bm", "sigma": 1.0}
PARITY_CONFIGS = {
    "summability": {"kind": "summability", "n_draws": 50},
    "taylor": {"kind": "taylor"},
    "qv": {"kind": "qv", "model": BM, "levels": [4, 5, 6], "n_paths": 4, "n_steps": 256},
    "ito": {"kind": "ito", "model": BM, "function": {"name": "square"},
            "level": 6, "n_paths": 2, "n_steps": 256},
    "ito_inapplicable": {"kind": "ito", "model": BM, "function": {"name": "sign"},
                         "level": 6, "n_paths": 2, "n_steps": 256},
    "tanaka_local_time": {"kind": "tanaka", "model": BM, "function": {"name": "abs"},
                          "level": 7, "n_paths": 3, "n_steps": 512,
                          "local_time": {"level": 0.0, "eps": 0.2}},
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
    run_lines = _check_lines(capsys.readouterr().out)
    replay_rc = main(["replay", str(tmp_path / "out")])
    replay_lines = _check_lines(capsys.readouterr().out)
    assert run_lines
    assert replay_lines == run_lines
    assert replay_rc == run_rc
