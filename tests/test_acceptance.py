"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them all) and covers
one release gate: solver-vs-reference agreement, closed forms, optimality
conditions on a corpus of trained models, metric arithmetic, feature ranking,
the multi-well benchmark ordering, the CLI pipeline, and model persistence.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from welldesc import (
    HIGH,
    LOW,
    KernelSpec,
    ConfusionCounts,
    NormStats,
    RunRecord,
    SvddTrainConfig,
    SynthConfig,
    binarize_target,
    compare_report,
    gen_synthetic,
    g_mean,
    load_model,
    normalize_fit,
    predict,
    radius2_of,
    relief_weights,
    save_model,
    select_top,
    split_leave_one_well_out,
    train,
)
from welldesc.kernels import gram

from conftest import BENCH_COST, benchmark_averages, benchmark_dataset, benchmark_records
from oracle import dual_objective, solve_dual_bruteforce

WIDE = KernelSpec(width=2.0)


def _report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# 1 ------------------------------------------------------------------------

def test_acceptance_1_solver_matches_reference_optimum():
    """100 random problems: the trainer's dual objective agrees with an
    interior-point reference to 1e-5, in under 30 seconds total."""
    t0 = time.monotonic()
    worst_obj = 0.0
    worst_alpha = 0.0
    alpha_checked = 0
    for i in range(100):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(2, 26))
        d = int(rng.integers(1, 6))
        X = rng.normal(0.0, 1.5, size=(n, d))
        spec = KernelSpec(width=float(rng.uniform(0.5, 3.0)))
        C = float(rng.uniform(1.0 / n, 1.0))

        K = gram(spec, X)
        m = train(X, SvddTrainConfig(kernel=spec, C=C))
        a = solve_dual_bruteforce(K, C)
        worst_obj = max(worst_obj, abs(dual_objective(K, m.alphas)
                                       - dual_objective(K, a)))

        # multipliers are only comparable when the optimum is unique; a
        # (near-)repeated bottom eigenvalue makes the solution set flat
        eig = np.linalg.eigvalsh(K)
        if eig[1] - eig[0] >= 1e-6 * max(1.0, eig[-1]):
            worst_alpha = max(worst_alpha, float(np.max(np.abs(m.alphas - a))))
            alpha_checked += 1
    elapsed = time.monotonic() - t0

    ok = worst_obj <= 1e-5 and worst_alpha <= 1e-3 and alpha_checked >= 20 and elapsed < 30.0
    print(f"\n  objective diff {worst_obj:.2e}, multiplier diff {worst_alpha:.2e} "
          f"on {alpha_checked} unique instances, {elapsed:.1f}s")
    _report(1, "solver equals reference", ok)


# 2 ------------------------------------------------------------------------

def test_acceptance_2_closed_form_models():
    single = train(np.array([[1.0, 2.0]]), SvddTrainConfig(kernel=WIDE, C=1.0))

    x1, x2 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    two = train(np.vstack([x1, x2]), SvddTrainConfig(kernel=WIDE, C=1.0))
    k = math.exp(-0.25)

    tri = train(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]),
                SvddTrainConfig(kernel=WIDE, C=1.0))

    ok = (single.r2 == 0.0
          and np.all(np.abs(two.alphas - 0.5) <= 1e-9)
          and abs(two.r2 - (1.0 - k) / 2.0) <= 1e-9
          and np.all(np.abs(tri.alphas - 1.0 / 3.0) <= 1e-6))
    _report(2, "closed forms", ok)


# 3 ------------------------------------------------------------------------

def _model_corpus():
    """Varied trained models: all kernel families, loose and tight costs,
    plus one model straight off the benchmark path."""
    corpus = []

    for X in (np.array([[1.0, 2.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])):
        corpus.append((train(X, SvddTrainConfig(kernel=WIDE, C=1.0)), X))

    for i in range(30):
        rng = np.random.default_rng(8000 + i)
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 7))
        X = rng.normal(0.0, 1.5, size=(n, d))
        spec = KernelSpec(width=float(rng.uniform(0.5, 3.0)))
        C = float(rng.uniform(1.0 / n, 1.0))
        corpus.append((train(X, SvddTrainConfig(kernel=spec, C=C)), X))

    rng = np.random.default_rng(8100)
    X = rng.normal(size=(20, 3))
    corpus.append((train(X, SvddTrainConfig(kernel=KernelSpec(family="erbf", width=1.5),
                                            C=0.2)), X))
    X = rng.normal(0.0, 0.8, size=(15, 2))
    corpus.append((train(X, SvddTrainConfig(
        kernel=KernelSpec(family="polynomial", degree=3, offset=1.0), C=0.4)), X))

    data = benchmark_dataset(seed=1)
    plan = split_leave_one_well_out(data, "A")
    stats = normalize_fit(data.X, np.flatnonzero(data.well_ids != "A"))
    Xb = data.X[plan.train_rows]
    corpus.append((train(Xb, SvddTrainConfig(kernel=WIDE, C=BENCH_COST), stats), Xb))
    return corpus


def test_acceptance_3_optimality_conditions_hold_on_every_model():
    ok = True
    for m, X in _model_corpus():
        ok &= abs(m.alphas.sum() - 1.0) <= 1e-9
        ok &= bool(np.all(m.alphas >= -1e-12) and np.all(m.alphas <= m.C + 1e-12))

        scores = np.array([radius2_of(m, x) for x in X])
        free = (m.alphas > m.kkt_tol) & (m.alphas < m.C - m.kkt_tol)
        if free.any():
            ref = float(scores[free].mean())
            band = 1e-4 * max(1.0, ref)
            ok &= bool(np.all(np.abs(scores[free] - ref) <= band))
            ok &= bool(np.all(scores[m.alphas <= m.kkt_tol] <= ref + band))
            ok &= bool(np.all(scores[m.alphas >= m.C - m.kkt_tol] >= ref - band))
        if not ok:
            break
    _report(3, "optimality conditions", ok)


# 4 ------------------------------------------------------------------------

def test_acceptance_4_metric_arithmetic():
    g = g_mean(ConfusionCounts(tp=3, fn=1, tn=8, fp=2))

    records = [RunRecord("svdd", w, None, None, gm, tr, None)
               for w, gm, tr in zip("ABCD",
                                    (0.78, 0.65, 0.83, 0.90),
                                    (30.2, 40.5, 19.3, 26.4))]
    avg = compare_report(records).strip().split("\n")[-1].split(",")

    ok = (abs(g - 0.7746) <= 1e-4
          and round(float(avg[4]), 2) == 0.79
          and round(float(avg[5]), 1) == 29.1)
    _report(4, "metric arithmetic", ok)


# 5 ------------------------------------------------------------------------

def test_acceptance_5_feature_ranking():
    fw = relief_weights(np.array([[0.0], [0.1], [0.9], [1.0]]),
                        np.array([LOW, LOW, HIGH, HIGH]))
    ok = abs(fw.weights[0] - 0.75) <= 1e-12

    hits = 0
    for seed in range(1, 11):
        table = gen_synthetic(SynthConfig(n_wells=1, rows_per_well=250, skew=0.9,
                                          n_features=4, seed=seed))
        data = binarize_target(table, 0.7)
        w = relief_weights(data.X, data.y).weights
        hits += bool(min(w[0], w[1]) > max(w[2], w[3]))
    ok = ok and hits == 10
    print(f"\n  hand weight ok, informative features on top in {hits}/10 seeds")
    _report(5, "feature ranking", ok)


# 6 ------------------------------------------------------------------------

# golden per-well scores recorded from the seed-1 benchmark run
GOLDEN_SEED1_SVDD = [
    ("A", 0.6666666666666666, 0.9938144329896907),
    ("B", 1.0, 0.9891752577319588),
    ("C", 1.0, 0.9680412371134021),
    ("D", 1.0, 0.9881443298969073),
]


def test_acceptance_6_benchmark_ordering():
    """The one-class model must beat every baseline on the skewed multi-well
    benchmark: seed 1 outright, and by average rank across ten seeds."""
    spot = {(r.well): (r.sensitivity, r.specificity)
            for r in benchmark_records(seed=1) if r.classifier == "svdd"}
    golden_ok = all(
        spot[w][0] == pytest.approx(sens, abs=1e-9)
        and spot[w][1] == pytest.approx(spec, abs=1e-9)
        for w, sens, spec in GOLDEN_SEED1_SVDD)

    wins = 0
    seed1 = None
    for seed in range(1, 11):
        avg = benchmark_averages(seed)
        if seed == 1:
            seed1 = avg
        if avg["svdd"] >= max(avg["svm"], avg["gnb"], avg["lda"]):
            wins += 1

    ok = (golden_ok
          and seed1["svdd"] >= 0.85
          and seed1["svdd"] >= max(seed1["svm"], seed1["gnb"], seed1["lda"])
          and wins >= 8)
    print(f"\n  seed-1 averages: svdd {seed1['svdd']:.3f}, svm {seed1['svm']:.3f}, "
          f"gnb {seed1['gnb']:.3f}, lda {seed1['lda']:.3f}; best in {wins}/10 seeds")
    _report(6, "benchmark ordering", ok)


# 7 ------------------------------------------------------------------------

def _pipeline(workdir):
    for step in (["synth", "--seed", "1"],
                 ["prepare", "--input", "synthetic.csv"],
                 ["features", "--input", "prepared.csv"],
                 ["run", "--input", "prepared.csv"]):
        r = subprocess.run([sys.executable, "-m", "welldesc", *step, "--out", "."],
                           capture_output=True, text=True, cwd=workdir, timeout=120)
        if r.returncode != 0:
            return False, r.stderr
    return True, ""


def test_acceptance_7_pipeline_smoke(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()

    t0 = time.monotonic()
    ok_a, err = _pipeline(a)
    elapsed = time.monotonic() - t0
    ok_b, _ = _pipeline(b)

    lines = (a / "report.csv").read_text().strip().split("\n") if ok_a else []
    shape_ok = (len(lines) == 1 + 4 * 5   # 4 classifiers x (4 wells + average)
                and sum(ln.split(",")[1] == "average" for ln in lines[1:]) == 4)

    strip = lambda p: [",".join(ln.split(",")[:5])
                       for ln in (p / "report.csv").read_text().strip().split("\n")]
    same = (ok_a and ok_b and strip(a) == strip(b)
            and (a / "prepared.csv").read_bytes() == (b / "prepared.csv").read_bytes()
            and (a / "relief_weights.csv").read_bytes() == (b / "relief_weights.csv").read_bytes())

    ok = ok_a and ok_b and elapsed < 60.0 and shape_ok and same
    print(f"\n  pipeline {elapsed:.1f}s, report rows {len(lines)}, "
          f"repeat run identical: {same} {err}")
    _report(7, "pipeline smoke", ok)


# 8 ------------------------------------------------------------------------

def test_acceptance_8_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(81)
    X = rng.normal(size=(60, 4))
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    m = train(X, SvddTrainConfig(kernel=WIDE, C=0.1), stats)

    path = tmp_path / "model.txt"
    save_model(m, path)
    back = load_model(path)

    queries = rng.normal(0.0, 2.0, size=(1000, 4))
    labels_ok = np.array_equal(predict(back, queries), predict(m, queries))
    scores_ok = all(radius2_of(back, q) == radius2_of(m, q) for q in queries[:50])
    _report(8, "persistence round trip", labels_ok and scores_ok)
