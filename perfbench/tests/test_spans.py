"""Tracer bookkeeping: self time of nested spans, and patches that come off again."""

import threading
import types

import pytest

import run
from spans import Tracer
from workloads import WORKLOADS


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def fake_tracer():
    wall, cpu = FakeClock(), FakeClock()
    return Tracer(wall_clock=wall, cpu_clock=cpu), wall, cpu


def test_nested_spans_subtract_direct_children_only():
    tracer, wall, cpu = fake_tracer()
    with tracer.span("outer"):
        wall.t += 1.0
        cpu.t += 0.5
        with tracer.span("mid"):
            wall.t += 2.0
            cpu.t += 1.0
            with tracer.span("inner"):
                wall.t += 4.0
                cpu.t += 4.0
        with tracer.span("mid"):
            wall.t += 8.0
        wall.t += 16.0
    s = tracer.summary()
    assert s["outer"] == {"calls": 1, "self_s": 17.0, "cpu_s": 0.5}
    assert s["mid"] == {"calls": 2, "self_s": 10.0, "cpu_s": 1.0}
    assert s["inner"] == {"calls": 1, "self_s": 4.0, "cpu_s": 4.0}
    total = sum(span.wall for span in tracer.spans if span.name == "outer")
    assert sum(row["self_s"] for row in s.values()) == total


def test_span_in_another_thread_is_a_root_there():
    tracer = Tracer()
    with tracer.span("pool"):
        t = threading.Thread(target=tracer.wrap("seed", lambda: None))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    pool = next(s for s in tracer.spans if s.name == "pool")
    assert pool.child_wall == 0.0
    assert tracer.summary()["seed"]["calls"] == 1


def test_installed_patches_count_work_and_come_off_after_an_error():
    def double(x):
        return [x, x]

    mod = types.SimpleNamespace(double=double)
    tracer, wall, _ = fake_tracer()
    patches = [
        (mod, "double", lambda f: tracer.wrap("m.double", f, lambda args, r: {"points": len(r)})),
        (mod, "absent", lambda f: pytest.fail("absent attributes are skipped")),
    ]
    with pytest.raises(RuntimeError):
        with tracer.installed(patches):
            assert mod.double is not double
            assert mod.double(3) == [3, 3]
            raise RuntimeError("boom")
    assert mod.double is double
    assert not hasattr(mod, "absent")
    assert tracer.summary()["m.double"] == {"calls": 1, "self_s": 0.0, "cpu_s": 0.0, "points": 2}


def test_untraced_run_after_traced_run_calls_the_originals(tmp_path):
    cli = run.import_pathcalc()
    run.pin_threads()
    tracer = Tracer()
    patches = run.layer_patches(tracer, cli)
    originals = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in patches]
    assert all(original is not None for _, _, original in originals)

    workload = WORKLOADS["tanaka_bm"]
    cfg = {**workload.make_config(smoke=True), "base_seed": 5}
    runner = run.Runner(cli, cfg, tmp_path, "t")
    traced = runner.run(tracer)
    assert traced.problem is None
    assert traced.spans["paths.simulate"]["calls"] == cfg["n_paths"]
    assert traced.spans["riemann.dyadic_grid"]["calls"] == 3 * cfg["n_paths"]
    assert traced.spans["cli.io.to_csv"]["bytes"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__.get(attr) is original, attr

    recorded = len(tracer.spans)
    untraced = runner.run()
    # problem is None also means the aggregate matched the traced run's bytes
    assert untraced.problem is None
    assert untraced.spans == {}
    assert len(tracer.spans) == recorded
