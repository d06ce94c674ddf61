"""Acceptance gate: every release criterion at its stated tolerance.

Run with -s to see one PASS/FAIL line per criterion. Criteria 1-2 reproduce
the bundled-dataset benchmark bands, 3-5 the algebraic identities of the
extrapolation estimator, 6 the ball-average bias coefficient, 7 the weight
scheme structure, 8 the desk-scale excess-risk ordering, 9 determinism, and
10 the independent-oracle agreements.
"""

import time

import numpy as np
import pytest

from msknn.bench import BenchConfig, bundled_path, run_benchmark
from msknn.cli import main
from msknn.dataset import Dataset
from msknn.multiscale import (
    MsknnConfig,
    fit_extrapolate,
    msknn_classify,
    msknn_fit,
    select_ks,
)
from msknn.neighbors import knn_search
from msknn.theory import (
    analytic_b1,
    excess_risk_experiment,
    fit_bias_expansion,
    quadratic_problem_1d,
    quadratic_problem_2d,
    smooth_problem_2d,
)
from msknn.weights import SamworthParams, choose_a0, samworth_nonneg_weights, samworth_real_weights
from oracles import weighted_knn


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def _bench(dataset: str, seed: int = 0) -> dict[str, float]:
    cfg = BenchConfig(
        datasets=((dataset, str(bundled_path(dataset))),),
        methods=("uniform", "msknn-log"),
        repeats=10,
        base_seed=seed,
    )
    out = run_benchmark(cfg)
    return {row.method: row.mean_acc for row in out.rows}


def test_c01_iris_table2_bands():
    t0 = time.time()
    acc = _bench("iris")
    elapsed = time.time() - t0
    ok = 0.90 <= acc["msknn-log"] <= 1.00 and 0.77 <= acc["uniform"] <= 0.89 and elapsed < 10
    report(
        1, ok, "Iris benchmark bands",
        f"msknn-log={acc['msknn-log']:.3f} in [0.90,1.00], "
        f"uniform={acc['uniform']:.3f} in [0.77,0.89], {elapsed:.1f}s",
    )


def test_c02_banknote_table2_bands():
    t0 = time.time()
    acc = _bench("banknote")
    elapsed = time.time() - t0
    ok = acc["msknn-log"] >= 0.97 and acc["uniform"] >= 0.93 and elapsed < 30
    report(
        2, ok, "Banknote benchmark bands",
        f"msknn-log={acc['msknn-log']:.3f} >= 0.97, "
        f"uniform={acc['uniform']:.3f} >= 0.93, {elapsed:.1f}s",
    )


def _random_instances(count: int):
    rng = np.random.default_rng(20240)
    for _ in range(count):
        n = int(rng.integers(20, 301))
        d = int(rng.integers(1, 9))
        V = int(rng.choice([3, 5]))
        C = int(rng.choice([1, 2]))
        pts = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, n).astype(float)
        q = rng.normal(size=d)
        ks = np.sort(rng.choice(np.arange(1, n + 1), size=V, replace=False))
        yield pts, labels, q, tuple(int(k) for k in ks), C


def test_c03_c04_equivalence_and_normalization():
    worst_eq = worst_z = worst_w = 0.0
    for pts, labels, q, ks, C in _random_instances(1000):
        cfg = MsknnConfig(C=C, lam=0.0, ks=ks)
        fit = msknn_fit(pts, q, labels, cfg)
        nl = knn_search(pts, q, ks[-1])
        direct = weighted_knn(nl, labels, fit.w_star)
        worst_eq = max(worst_eq, abs(fit.estimate - direct))
        worst_z = max(worst_z, abs(fit.z.sum() - 1.0))
        worst_w = max(worst_w, abs(fit.w_star.sum() - 1.0))
    report(
        3, worst_eq <= 1e-9, "equivalence of extrapolation and implicit weighting",
        f"max |b0 - w*.Y| = {worst_eq:.2e} over 1000 instances",
    )
    report(
        4, worst_z <= 1e-10 and worst_w <= 1e-9, "weight normalization identities",
        f"max |sum z - 1| = {worst_z:.2e}, max |sum w* - 1| = {worst_w:.2e}",
    )


def test_c05_exact_polynomial_recovery():
    r = np.array([0.1, 0.2, 0.3])
    fit = fit_extrapolate(np.vander(r**2, N=2, increasing=True), 0.5 + 0.3 * r**2, 0.0)
    err = float(np.abs(fit.coef - np.array([0.5, 0.3])).max())
    report(5, err <= 1e-9, "exact polynomial recovery", f"max coefficient error {err:.2e}")


def test_c06_bias_expansion_coefficients():
    t0 = time.time()
    grid = np.linspace(0.05, 0.3, 8)
    # 8 balls x 10_000 nodes per problem stays within the 1e5-node budget
    b1_1d = fit_bias_expansion(quadratic_problem_1d(), [0.0], grid, C=1, budget=10_000)[1]
    b1_2d = fit_bias_expansion(quadratic_problem_2d(), [0.0, 0.0], grid, C=1, budget=10_000)[1]
    a1 = analytic_b1(quadratic_problem_1d(), [0.0])
    a2 = analytic_b1(quadratic_problem_2d(), [0.0, 0.0])
    elapsed = time.time() - t0
    rel1 = abs(b1_1d - a1) / a1
    rel2 = abs(b1_2d - a2) / a2
    ok = rel1 <= 0.05 and rel2 <= 0.05 and abs(a1 - 1 / 3) < 1e-12 and abs(a2 - 1 / 8) < 1e-12
    ok = ok and elapsed < 5
    report(
        6, ok, "ball-average bias coefficients",
        f"d=1: {b1_1d:.5f} vs 1/3 (rel {rel1:.3f}); d=2: {b1_2d:.5f} vs 1/8 "
        f"(rel {rel2:.3f}); {elapsed:.1f}s",
    )


def test_c07_samworth_weight_structure():
    w6 = samworth_nonneg_weights(100, 10)
    ok6 = abs(w6.sum() - 1.0) <= 1e-12 and np.all(np.diff(w6) <= 0) and w6[-1] <= 1e-3

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 400))
        d = int(rng.integers(1, 30))
        a0 = float(rng.uniform(-10, 10))
        w = samworth_real_weights(SamworthParams(k, d, a0))
        worst = max(worst, abs(w.sum() - 1.0))
    a0_star = choose_a0(100, 10)
    w9 = samworth_real_weights(SamworthParams(100, 10, a0_star))
    has_negative = bool(w9.min() < 0)

    ok = ok6 and worst <= 1e-9 and has_negative
    report(
        7, ok, "optimal weight structure",
        f"nonneg: sum err {abs(w6.sum() - 1):.1e}, tail {w6[-1]:.1e}; "
        f"real family: max sum err {worst:.1e}, min weight {w9.min():.4f}",
    )


def test_c08_rate_ordering_desk_scale():
    t0 = time.time()
    table = excess_risk_experiment(
        smooth_problem_2d(),
        ["unweighted", "msknn_radius"],
        n_grid=[4096],
        reps=200,
        n_test=64,
        seed=88,
        V=5,
        C=2,
        lam=1e-4,
    )
    elapsed = time.time() - t0
    uw = table.per_rep[0, 0]
    ms = table.per_rep[1, 0]
    diff = uw - ms  # positive when extrapolation wins
    se_paired = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    ok = float(diff.mean()) > -se_paired and elapsed < 300
    report(
        8, ok, "excess-risk ordering at n=4096 (paired, 200 reps)",
        f"unweighted {uw.mean():.5f}, multiscale {ms.mean():.5f}, "
        f"paired diff {diff.mean():.5f} > -SE ({se_paired:.5f}); {elapsed:.0f}s",
    )


def test_c09_bench_determinism(tmp_path):
    # timing is declared a non-acceptance quantity, so the byte comparison
    # covers every column except the final seconds field
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = main([
            "bench", "--data", "iris", "--seed", "11", "--repeats", "10",
            "--methods", "uniform,snn,srw,msknn-r,msknn-log", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_text())

    def strip_seconds(text: str) -> bytes:
        lines = [",".join(l.split(",")[:7]) for l in text.splitlines()]
        return "\n".join(lines).encode()

    ok = strip_seconds(outs[0]) == strip_seconds(outs[1]) and len(outs[0]) > 100
    report(9, ok, "byte-identical benchmark reports for fixed seeds")


def test_c10_oracle_agreement():
    rng = np.random.default_rng(10101)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            pts = rng.integers(0, 4, size=(n, d)).astype(float)
            q = rng.integers(0, 4, size=d).astype(float)
        else:
            pts = rng.normal(size=(n, d))
            q = rng.normal(size=d)
        k = int(rng.integers(1, n + 1))
        nl = knn_search(pts, q, k)
        d2 = np.square(pts - q).sum(axis=1)
        oracle = np.lexsort((np.arange(n), d2))[:k]
        if not (
            np.array_equal(nl.indices, oracle)
            and np.array_equal(nl.distances, np.sqrt(d2[oracle]))
        ):
            mismatches += 1

    def direct_classify(points, labels, m, query, ks, C, lam):
        d2 = np.square(points - query).sum(axis=1)
        order = np.lexsort((np.arange(len(points)), d2))
        karr = np.asarray(ks)
        p = d2[order][karr - 1]
        A = np.stack([p**c for c in range(C + 1)], axis=1)
        D = np.eye(C + 1)
        D[0, 0] = 0.0
        ests = []
        for c in range(m):
            phi = np.cumsum((labels[order] == c).astype(float))[karr - 1] / karr
            ests.append(np.linalg.solve(A.T @ A + lam * D, A.T @ phi)[0])
        return int(ests[1] >= 0.5) if m == 2 else int(np.argmax(ests))

    clf_mismatch = 0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(40, 200))
        d = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, d))
        labels = rng.integers(0, m, n)
        labels[:m] = np.arange(m)
        data = Dataset(pts, labels, m)
        cfg = MsknnConfig(V=5, C=int(rng.integers(1, 3)), lam=float(rng.choice([0.0, 1e-4])))
        ks = select_ks(n, d, 5)
        q = rng.normal(size=d)
        if msknn_classify(data, q, cfg) != direct_classify(pts, labels, m, q, ks, cfg.C, cfg.lam):
            clf_mismatch += 1

    ok = mismatches == 0 and clf_mismatch == 0
    report(
        10, ok, "oracle agreement",
        f"search mismatches {mismatches}/500, classifier mismatches {clf_mismatch}/100",
    )
