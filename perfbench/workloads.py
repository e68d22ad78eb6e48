"""The benchmark's workloads: ``pathcalc run`` configs at their stated sizes.

Each workload is one config; the benchmark seed picks its ``base_seed``.
``smoke`` holds the overrides that shrink it to a run of well under a
second for the benchmark's own tests.  Why each workload exists, and which
layers it loads or bypasses, is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    smoke: dict = field(default_factory=dict)

    def make_config(self, smoke: bool = False) -> dict:
        return {"schema_version": 1, **self.config, **(self.smoke if smoke else {})}


BM = {"kind": "bm", "sigma": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tanaka_bm",
            config={
                "kind": "tanaka", "model": BM, "function": {"name": "abs"},
                "level": 16, "n_steps": 2**16, "n_paths": 96,
                "local_time": {"level": 0.0, "eps": 0.01},
            },
            # 64 paths or fewer turn on path CSVs, so the smoke size also
            # reaches SamplePath.to_csv and DecompositionReport.series_csv.
            smoke={"level": 7, "n_steps": 2**9, "n_paths": 3,
                   "local_time": {"level": 0.0, "eps": 0.2}},
        ),
        Workload(
            name="qv_jd",
            config={
                "kind": "qv",
                "model": {"kind": "jd", "sigma": 1.0, "drift": 0.1, "rate": 3.0,
                          "law": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
                "levels": [8, 10, 12, 14, 16], "n_steps": 2**16, "n_paths": 12,
                # E[QV_1] = sigma^2 + rate * E[J^2] = 2; the band is about 3.6
                # standard errors of the 12-path mean.
                "tolerances": {"qv_band": [1.2, 2.8]},
            },
            smoke={"levels": [4, 6, 8], "n_steps": 2**9, "n_paths": 3,
                   "tolerances": {"qv_band": [0.0, 10.0]}},
        ),
        Workload(
            name="independence_hit",
            config={
                "kind": "independence", "model": BM,
                "levels": [11, 12], "hitting_eps": [2**-5.5, 2**-6],
                "n_steps": 2**14, "n_paths": 200,
                "tolerances": {"eps": 0.05, "delta": 0.05},
            },
            smoke={"levels": [5, 6], "hitting_eps": [0.25, 0.125], "n_steps": 2**9,
                   "n_paths": 4, "tolerances": {"eps": 1.0, "delta": 1.0}},
        ),
        Workload(
            name="compensator_mc",
            config={"kind": "compensator", "n_paths": 10_000},
            smoke={"n_paths": 300},
        ),
    )
}
