"""The float-column CSV writers against the per-row writers they replaced.

``reference_to_csv`` and ``reference_series_csv`` are the row-at-a-time
writers (``csv.writer`` with ``repr(float(v))`` per field, and one joined
line per row); ``SamplePath.to_csv`` and ``DecompositionReport.series_csv``
must write exactly their bytes.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings, strategies as st

from pathcalc import (
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    NormalLaw,
    SamplePath,
    TwoPointLaw,
    dyadic_grid,
    hitting_grid,
    ito_decompose,
    make_scalar_fn,
    simulate,
    tanaka_decompose,
)

MODELS = [
    BrownianMotion(),
    JumpDiffusion(sigma=1.0, drift=0.2, rate=6.0, law=NormalLaw(0.0, 0.8)),
    CompoundPoissonJumps(rate=6.0, law=TwoPointLaw(0.5, 0.3, -0.4)),
    FiniteVariationPath((0.0, 0.3, 0.7, 1.0), (0.0, 1.5, -0.5, 0.25)),
]
# rows are n_steps + 1 plus the jumps: one row, and 1024 give or take one
N_STEPS = st.sampled_from([1, 1022, 1023, 1024, 1025]) | st.integers(1, 3072)
SEEDS = st.integers(0, 2**32 - 1)


def reference_to_csv(path, file) -> None:
    sizes = path.jump_size_at()
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "value", "pre_jump_value", "jump_size"])
        for row in zip(path.times, path.values, path.pre_values, sizes):
            writer.writerow([repr(float(v)) for v in row])


def reference_series_csv(report, fh) -> None:
    fh.write("t,lhs,stoch_integral,compensator,jump_term,residual\n")
    for row in zip(report.times, report.lhs, report.stochastic_integral,
                   report.compensator_term, report.jump_term, report.residual):
        fh.write(",".join(repr(float(v)) for v in row) + "\n")


def signed_zeros(path, seed) -> SamplePath:
    """``path`` with some values, left limits and jump sizes set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)

    def zeroed(a):
        a = a.copy()
        a[rng.random(len(a)) < 0.3] = 0.0
        a[rng.random(len(a)) < 0.3] = -0.0
        return a

    values = zeroed(path.values)
    pre = np.where(rng.random(path.n_points) < 0.5, values, zeroed(path.pre_values))
    return SamplePath(times=path.times, values=values, pre_values=pre,
                      jump_indices=path.jump_indices, jump_sizes=zeroed(path.jump_sizes),
                      horizon=path.horizon)


class TestPathsCsv:
    @given(model=st.sampled_from(MODELS), n_steps=N_STEPS, seed=SEEDS,
           form=st.sampled_from(["simulated", "imported", "signed_zeros"]))
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_the_row_writer(self, tmp_path_factory, model, n_steps, seed, form):
        directory = tmp_path_factory.mktemp("csv")
        path = simulate(model, n_steps, 1.0, seed=seed)
        if form == "imported":
            reference_to_csv(path, directory / "exported.csv")
            path = SamplePath.from_csv(directory / "exported.csv")
        elif form == "signed_zeros":
            path = signed_zeros(path, seed)
        reference_to_csv(path, directory / "reference.csv")
        path.to_csv(directory / "paths.csv")
        assert (directory / "paths.csv").read_bytes() == (directory / "reference.csv").read_bytes()


class TestSeriesCsv:
    @given(model=st.sampled_from(MODELS), n_steps=N_STEPS, seed=SEEDS,
           scheme=st.sampled_from(["dyadic", "hitting"]),
           mode_f=st.sampled_from([("ito", "square"), ("ito", "cos"), ("ito", "sign"),
                                   ("tanaka", "abs")]))
    @settings(max_examples=60, deadline=None)
    def test_text_equals_the_row_writer(self, model, n_steps, seed, scheme, mode_f):
        path = simulate(model, n_steps, 1.0, seed=seed)
        if scheme == "dyadic":
            grid = dyadic_grid(path, max(0, int(np.log2(n_steps))))
        else:
            grid = hitting_grid(path, max(3.0 * path.median_continuous_move(), 0.05))
        mode, f = mode_f
        decompose = ito_decompose if mode == "ito" else tanaka_decompose
        report = decompose(make_scalar_fn(f), grid)
        new, ref = io.StringIO(), io.StringIO()
        report.series_csv(new)
        reference_series_csv(report, ref)
        assert new.getvalue() == ref.getvalue()
