"""Acceptance suite: one gate per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Tolerances are pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from pathcalc import (
    BrownianMotion,
    FiniteVariationPath,
    JumpDiffusion,
    Partition,
    ScalarFn,
    UniformLaw,
    boundedness_scan,
    dyadic_grid,
    increment_fn,
    ito_decompose,
    limit_in_probability,
    linear_remainder,
    lipschitz_scan,
    make_scalar_fn,
    occupation_local_time,
    partition_sum,
    realized_qv,
    simulate,
    squared_increment,
    summability_limit,
    tanaka_decompose,
    taylor_check,
)
from pathcalc.compensator import (
    ConstantY,
    catalog_models,
    catalog_test_processes,
    verify_compensator,
)

SQUARE = make_scalar_fn("square")
ABS = make_scalar_fn("abs")
XABS = make_scalar_fn("x_abs_x_half")


def report(num, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_1_exact_algebraic_ito_identity():
    t0 = time.time()
    models = [BrownianMotion(),
              JumpDiffusion(sigma=1.0, drift=0.1, rate=3.0, law=UniformLaw(-1.0, 1.0)),
              FiniteVariationPath((0.0, 0.4, 1.0), (0.0, 0.8, 0.3))]
    worst_resid = worst_gap = 0.0
    for model in models:
        for seed in range(100):
            p = simulate(model, 4096, 1.0, seed=6000 + seed)
            rep = ito_decompose(SQUARE, dyadic_grid(p, 12))
            worst_resid = max(worst_resid, float(np.max(np.abs(rep.residual))))
            worst_gap = max(worst_gap, float(np.max(rep.identity_gap)))
    passed = worst_resid <= 1e-10 and worst_gap <= 1e-10
    report(1, "exact x^2 identity", passed,
           f"max residual {worst_resid:.2e}, max gap {worst_gap:.2e} (<= 1e-10)",
           time.time() - t0, 10.0)


def test_2_telescoping_and_additivity():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=2024))
    names = ["abs", "square", "cube", "x_abs_x_half", "sign_primitive", "identity", "relu", "cos"]
    fns = [make_scalar_fn(n) for n in names]
    worst = 0.0
    draws = 0
    while draws < 10_000:
        f = fns[int(rng.integers(len(fns)))]
        a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
        if b - a < 1e-3:
            continue
        pts = np.sort(rng.uniform(a, b, size=int(rng.integers(0, 24))))
        pts = pts[(pts > a) & (pts < b)]
        s = partition_sum(increment_fn(f), Partition(a, b, tuple(pts)))
        worst = max(worst, abs(s - (float(f(b)) - float(f(a)))))
        draws += 1

    tol = 1e-4
    add_worst = 0.0
    for f in fns[:4]:
        F = increment_fn(f)
        t = float(rng.uniform(-0.5, 0.5))
        whole = summability_limit(F, -1.0, 1.0, tol=tol)
        left = summability_limit(F, -1.0, t, tol=tol)
        right = summability_limit(F, t, 1.0, tol=tol)
        assert whole.converged and left.converged and right.converged
        add_worst = max(add_worst, abs(whole.estimate - left.estimate - right.estimate))

    passed = worst <= 1e-10 and add_worst <= 2 * tol
    report(2, "telescoping + additivity", passed,
           f"telescoping error {worst:.2e} over 10^4 draws, additivity gap {add_worst:.2e} (<= {2 * tol})",
           time.time() - t0, 5.0)


def test_3_qv_of_brownian_motion():
    t0 = time.time()
    levels = list(range(8, 15))
    traces = np.zeros((1000, len(levels)))
    for i in range(1000):
        p = simulate(BrownianMotion(), 2**14, 1.0, seed=7000 + i)
        traces[i] = [realized_qv(dyadic_grid(p, lv)) for lv in levels]
    mean12 = float(traces[:, levels.index(12)].mean())
    diffs = np.abs(np.diff(traces, axis=1)).mean(axis=0)
    cauchy = bool(np.all(np.diff(diffs) < 0))
    passed = 0.95 <= mean12 <= 1.05 and cauchy
    report(3, "QV of BM", passed,
           f"mean QV@12 = {mean12:.4f} in [0.95, 1.05], level diffs {np.round(diffs, 4).tolist()} decreasing={cauchy}",
           time.time() - t0, 30.0)


def test_4_generalized_ito_for_nonsmooth_f():
    t0 = time.time()
    stats = []
    for seed in range(500):
        p = simulate(BrownianMotion(), 2**14, 1.0, seed=4000 + seed)
        rep = ito_decompose(XABS, dyadic_grid(p, 14))
        # oracle: direct time quadrature of sign along the path, sigma^2 = 1
        stats.append(abs(rep.lhs[-1] - rep.stochastic_integral[-1] - rep.compensator_closed[-1]))
    mean_defect = float(np.mean(stats))
    passed = mean_defect < 0.05
    report(4, "generalized Ito for x|x|/2", passed,
           f"mean |f(B_1) - int |B| dB - 0.5 int sign(B) ds| = {mean_defect:.4f} (< 0.05)",
           time.time() - t0, 120.0)


def test_5_generalized_tanaka_local_time():
    t0 = time.time()
    a_final, oracles, min_incr, max_jump_cell = [], [], 0.0, 0.0
    per_path_rel = []
    for seed in range(300):
        p = simulate(BrownianMotion(), 2**16, 1.0, seed=5000 + seed)
        rep = tanaka_decompose(ABS, dyadic_grid(p, 16))
        ac = float(rep.residual[-1])
        oracle = occupation_local_time(p, 0.0, 0.01)
        a_final.append(ac)
        oracles.append(oracle)
        per_path_rel.append(abs(ac - oracle) / oracle)
        min_incr = min(min_incr, float(np.min(np.diff(rep.residual))))
        if len(rep.jump_cell_residuals):
            max_jump_cell = max(max_jump_cell, float(np.max(np.abs(rep.jump_cell_residuals))))
    a_final = np.asarray(a_final)
    oracles = np.asarray(oracles)
    rel_of_means = abs(a_final.mean() - oracles.mean()) / oracles.mean()
    target = np.sqrt(2 / np.pi)
    se = oracles.std(ddof=1) / np.sqrt(len(oracles))
    oracle_z = abs(oracles.mean() - target) / se
    passed = (rel_of_means < 0.10 and min_incr >= -1e-6
              and max_jump_cell <= 1e-3 and oracle_z <= 3.0)
    report(5, "generalized Tanaka for |x|", passed,
           f"A^c vs oracle rel err of MC means {rel_of_means:.4f} (< 0.10; per-path mean "
           f"{float(np.mean(per_path_rel)):.3f} diagnostic), min A^c increment {min_incr:.1e} (>= -1e-6), "
           f"max jump-time increment {max_jump_cell:.1e} (<= 1e-3), oracle |z| {oracle_z:.2f} (<= 3)",
           time.time() - t0, 300.0)


def test_6_riemann_sequence_independence():
    t0 = time.time()
    diag = limit_in_probability(
        squared_increment(), BrownianMotion(),
        schemes=[{"scheme": "dyadic", "params": [11, 12]},
                 {"scheme": "hitting", "params": [2**-5.5, 2**-6]}],
        n_paths=500, eps=0.05, delta=0.05, n_steps=2**14, base_seed=3000,
    )
    cross = max(diag.cross_tail.values())
    freq = 1.0 - cross
    passed = freq >= 0.95
    report(6, "grid-family independence of [B,B]_1", passed,
           f"dyadic(12) vs hitting(2^-6) agreement within 0.05 with frequency {freq:.3f} (>= 0.95)",
           time.time() - t0, 120.0)


def test_7_compensator_contract():
    t0 = time.time()
    seed = 9000
    all_pass = True
    worst = ""
    for model in catalog_models():
        for y in catalog_test_processes(1.0):
            v = verify_compensator(model, y, n_paths=10_000, T=1.0, seed=seed)
            if not v.passed:
                all_pass = False
                worst = f"{model.label} x {y.label} diff {v.diff:.4f} > 3se {3 * v.se_combined:.4f}"
            seed += 1
    neg = verify_compensator(catalog_models()[0], ConstantY(1.0), n_paths=10_000,
                             T=1.0, seed=seed, rate_factor=1.5)
    passed = all_pass and not neg.passed
    report(7, "compensator contract", passed,
           f"all catalog (model x Y) pairs within 3 SE at 10^4 paths: {all_pass}; "
           f"wrong-intensity negative control fails: {not neg.passed}" + (f"; {worst}" if worst else ""),
           time.time() - t0, 120.0)


def test_8_taylor_exactness_and_remainder_bound():
    t0 = time.time()
    polys = [
        ScalarFn("p1", lambda x: 2.0 * np.asarray(x, dtype=float) - 1.0),
        ScalarFn("p2", lambda x: np.asarray(x, dtype=float) ** 2 - 0.5 * np.asarray(x, dtype=float)),
        ScalarFn("p3", lambda x: np.asarray(x, dtype=float) ** 3 + np.asarray(x, dtype=float)),
        ScalarFn("p4", lambda x: 0.3 * np.asarray(x, dtype=float) ** 4
                 - 1.2 * np.asarray(x, dtype=float) ** 2 + 0.5 * np.asarray(x, dtype=float)),
    ]
    worst_gap = 0.0
    for deg, f in enumerate(polys, start=1):
        rep = taylor_check(increment_fn(f), -0.7, 0.9, deg)
        assert rep.applicable
        worst_gap = max(worst_gap, rep.identity_gap)
    kinked = taylor_check(increment_fn(XABS), 0.0, 1.0, 2)
    passed = worst_gap < 1e-10 and kinked.bound_ok and kinked.success
    report(8, "expansion exactness", passed,
           f"max identity gap over degrees 1..4 = {worst_gap:.2e} (< 1e-10); "
           f"x|x|/2 remainder {kinked.remainder:.3f} within bound {kinked.remainder_bound:.3f}: {kinked.bound_ok}",
           time.time() - t0, 60.0)


def test_9_convexity_positivity_and_ratio_bound():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=99))
    convex_names = ["abs", "square", "relu", "identity", "sign_primitive"]
    min_val = np.inf
    for name in convex_names:
        f = make_scalar_fn(name)
        assert f.convex
        g = ScalarFn("g", f.derivatives[1])
        x = rng.uniform(-3.0, 3.0, size=10_000)
        y = rng.uniform(-3.0, 3.0, size=10_000)
        vals = linear_remainder(f, g)(x, y)
        min_val = min(min_val, float(np.min(vals)))
    positivity = min_val >= 0.0

    # ratio bound |F(s,t)| <= K (X_t - X_s)^2 with K = 1/2 for the
    # Lipschitz-1 derivative pair, checked in numerator form on all pairs
    star = linear_remainder(XABS, ABS)
    paths = [simulate(BrownianMotion(), 4096, 1.0, seed=500 + s) for s in range(20)]
    bound_ok = True
    pair_rng = np.random.Generator(np.random.Philox(key=77))
    for p in paths:
        x = p.values
        i = np.arange(len(x) - 1)
        pairs = [(i, i + 1)]
        ri = pair_rng.integers(0, len(x) - 1, size=20_000)
        rj = pair_rng.integers(1, len(x), size=20_000)
        pairs.append((np.minimum(ri, rj - 1), np.maximum(ri + 1, rj)))
        for ii, jj in pairs:
            lhs = np.abs(star(x[ii], x[jj]))
            rhs = 0.5 * (x[jj] - x[ii]) ** 2
            bound_ok = bound_ok and bool(np.all(lhs <= rhs + 1e-12))
    est, flag = boundedness_scan(star, paths[:6], "bounded", seed=1)
    scan_ok = flag and est <= 0.5 + 2e-4

    passed = positivity and bound_ok and scan_ok
    report(9, "convexity positivity + ratio bound", passed,
           f"min Star(f, D+f) over 10^4 pairs x {len(convex_names)} convex fns = {min_val:.2e} (>= 0); "
           f"|F| <= (X_t-X_s)^2/2 on all sampled pairs: {bound_ok}; scan sup {est:.4f}",
           time.time() - t0, 60.0)
