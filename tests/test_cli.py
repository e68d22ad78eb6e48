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
              "tanaka": {"paths.csv", "decomposition.csv"}, "independence": {"trace.csv"}}
    for seed, rel in per_seed.items():
        assert rel == f"{seed}/report.json"
        files = {p.name for p in (kind_dir / seed).iterdir()}
        assert files == {"report.json"} | extras.get(kind, set())


class TestMalformedAggregate:
    @pytest.fixture
    def agg_path(self, tmp_path):
        main(["run", qv_config(tmp_path, out="mal")])
        return tmp_path / "mal" / "qv" / "aggregate.json"

    @pytest.mark.parametrize("corrupt", [
        lambda agg: agg["checks"][0]["recompute"].update(stat="median"),
        lambda agg: agg["checks"][0].update(op="approx"),
        lambda agg: agg.pop("checks"),
        lambda agg: agg["checks"][1].pop("bound"),
        lambda agg: agg["checks"][0].update(bound=1.0),
    ], ids=["unknown_stat", "unknown_op", "no_checks", "no_bound", "scalar_band"])
    def test_replay_reports_an_error_and_exits_2(self, agg_path, capsys, corrupt):
        agg = json.loads(agg_path.read_text())
        corrupt(agg)
        agg_path.write_text(json.dumps(agg))
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

    def test_compensator_defaults_to_ten_thousand_paths(self, tmp_path):
        cfg = write_config(tmp_path, "comp.json", {
            "schema_version": 1, "kind": "compensator", "out_dir": str(tmp_path / "out")})
        main(["run", cfg])
        kind_dir = tmp_path / "out" / "compensator"
        agg = json.loads((kind_dir / "aggregate.json").read_text())
        assert agg["config"]["n_paths"] == 10_000
        for rel in agg["per_seed"].values():
            assert json.loads((kind_dir / rel).read_text())["pair"]["n_paths"] == 10_000

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
