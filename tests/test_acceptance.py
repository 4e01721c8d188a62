"""Acceptance gate: nine end-to-end properties the package must satisfy.

Each test produces exactly one [PASS]/[FAIL] verdict line — printed by the
test and echoed after the run summary via conftest so it survives output
capture — and asserts both the property and its runtime budget.
"""

import hashlib
import time

import numpy as np
import pytest

from skyglow.cli.commands import COMMANDS, dispatch
from skyglow.dataset import join_population
from skyglow.ensemble import mean_blend, optimize_weights
from skyglow.features.knn import _exact_knn
from skyglow.features.pipeline import (
    FeatureConfig,
    NeighborIndex,
    target_classes,
)
from skyglow.features.neighbors import neighbor_mean_features
from skyglow.features.stack import StackSpec
from skyglow.folds import fold_assignment
from skyglow.learners.gbdt import (
    fit_gbdt,
    log_loss,
    predict_proba_gbdt,
    softmax,
    softmax_gradient_hessian,
)
from skyglow.learners.params import LearnerParams
from skyglow.synth import SynthConfig, generate_observations, generate_population
from skyglow.textfeat import fit_truncated_svd, transform_svd
from skyglow.validation import (
    LearnerSpec,
    classification_metrics,
    micro_f1,
    predicted_classes,
    run_cv,
)

from oracles import brute_knn


VERDICTS: list[str] = []  # echoed by conftest's terminal-summary hook


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number} ({label}): {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def synth_table():
    """The bundled synthetic dataset at full desk scale, census joined."""
    table = generate_observations(SynthConfig(n_rows=2000, seed=42))
    return join_population(table, generate_population())


def test_criterion_1_metric_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        c = int(rng.integers(2, 9))
        predicted = rng.integers(0, c, size=n)
        truth = rng.integers(0, c, size=n)
        m = classification_metrics(predicted, truth, n_classes=c)
        accuracy = float((predicted == truth).sum() / n)
        worst = max(worst, abs(m.micro_precision - accuracy),
                    abs(m.micro_recall - accuracy), abs(m.micro_f1 - accuracy))
    hand = classification_metrics(np.array([0, 1, 0]), np.array([0, 1, 1]))
    p = r = 2 / 3
    hand_ok = (hand.micro_f1 == 2 * p * r / (p + r)
               and abs(hand.micro_f1 - 2 / 3) <= 1e-12)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and hand_ok and elapsed < 5.0
    _verdict(1, "metric identity", ok,
             f"P=R=F1=accuracy on 1000 instances (max dev {worst:.2e} <= 1e-12), "
             f"hand case [A,B,A]v[A,B,B] F1=2/3; {elapsed:.1f}s < 5s")


def test_criterion_2_svd_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst_rel = 0.0
    for i in range(50):
        m = int(rng.integers(5, 61))
        n = int(rng.integers(4, 41))
        a = rng.normal(size=(m, n))
        r = int(rng.integers(1, min(10, m, n) + 1))
        model = fit_truncated_svd(a, rank=r, seed=i)
        exact = np.linalg.svd(a, compute_uv=False)[:r]
        rel = np.max(np.abs(model.singular_values - exact) / exact)
        worst_rel = max(worst_rel, float(rel))

    a = np.random.default_rng(21).normal(size=(40, 30))
    errors = []
    for r in range(1, 11):
        model = fit_truncated_svd(a, rank=r, seed=0)
        approx = transform_svd(model, a) @ model.components
        errors.append(float(np.linalg.norm(a - approx)))
    monotone = all(errors[i + 1] <= errors[i] + 1e-9
                   for i in range(len(errors) - 1))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and monotone and elapsed < 30.0
    _verdict(2, "SVD oracle", ok,
             f"50 matrices, top-r singular values within 1e-6 relative "
             f"(worst {worst_rel:.2e}), reconstruction error nonincreasing "
             f"r=1..10; {elapsed:.1f}s < 30s")


def _nearest_others(points: np.ndarray, i: int, k: int) -> list[int]:
    """The k nearest rows to row i among the others: the exact kernel
    over `points` without row i, whose positions at or after i shift up
    by one to become rows."""
    found = _exact_knn(np.delete(points, i, 0), points[i:i + 1], k)[0]
    return (found + (found >= i)).tolist()


def test_criterion_3_knn_oracle_and_leakage():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 501))
        points = rng.normal(size=(n, 4))
        k = int(rng.integers(1, min(10, n - 1) + 1))
        order = np.arange(n)
        # exhaustive vectorized brute-force scan over every query row
        for i in range(n):
            d2 = ((points - points[i]) ** 2).sum(axis=1)
            ranked = np.lexsort((order, d2))
            expected = [j for j in ranked if j != i][:k]
            if _nearest_others(points, i, k) != expected:
                mismatches += 1
        # independent pure-python oracle on a sample of rows
        for i in rng.choice(n, size=min(4, n), replace=False):
            if _nearest_others(points, int(i), k) != brute_knn(points, int(i), k):
                mismatches += 1

    leak_rng = np.random.default_rng(31)
    n = 200
    points = leak_rng.normal(size=(n, 4))
    values = leak_rng.normal(size=n)
    folds = leak_rng.integers(0, 4, size=n)
    index = NeighborIndex(points, np.arange(n), folds)
    base_means, base_counts = neighbor_mean_features(index, values, 5)
    leak_free = True
    for i in range(n):
        poked = values.copy()
        poked[i] += 1000.0
        means, counts = neighbor_mean_features(index, poked, 5)
        leak_free &= (means[i] == base_means[i] and counts[i] == base_counts[i])
    for fold in range(4):
        poked = values.copy()
        poked[folds == fold] -= 500.0
        means, counts = neighbor_mean_features(index, poked, 5)
        rows = folds == fold
        leak_free &= (np.array_equal(means[rows], base_means[rows])
                      and np.array_equal(counts[rows], base_counts[rows]))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and leak_free and elapsed < 60.0
    _verdict(3, "KNN oracle + leakage", ok,
             f"queries equal brute-force scan on 100 instances "
             f"({mismatches} mismatches), own-target and whole-fold "
             f"perturbations leave OOF neighbor means bit-identical; "
             f"{elapsed:.1f}s < 60s")


def test_criterion_4_stratification():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 301))
        c = int(rng.integers(1, 7))
        k = int(rng.integers(2, 11))
        seed = int(rng.integers(0, 10_000))
        labels = rng.integers(0, c, size=n)
        folds = fold_assignment(labels, k, seed).folds
        if folds.shape != (n,) or not ((folds >= 0) & (folds < k)).all():
            violations += 1
            continue
        for cls in range(c):
            counts = np.bincount(folds[labels == cls], minlength=k)
            if counts.max() - counts.min() > 1:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _verdict(4, "stratification", ok,
             f"200 random (labels, k, seed) combos partition the rows with "
             f"per-class per-fold counts within 1 ({violations} violations); "
             f"{elapsed:.1f}s < 10s")


def test_criterion_5_learner_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(50)

    X = np.vstack([rng.normal(loc=c * 2.0, size=(100, 5)) for c in range(3)])
    y = np.repeat(np.arange(3), 100)
    model = fit_gbdt(X, y, LearnerParams(n_rounds=20, learning_rate=0.2))
    losses = model.train_losses
    loss_monotone = all(losses[i + 1] <= losses[i] + 1e-12
                        for i in range(len(losses) - 1))

    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X_xor = np.tile(base, (10, 1))
    y_xor = (X_xor[:, 0] != X_xor[:, 1]).astype(np.int64)
    xor_model = fit_gbdt(X_xor, y_xor,
                         LearnerParams(n_rounds=50, learning_rate=0.5,
                                       max_leaves=4, min_samples_leaf=1))
    xor_accuracy = float(
        (predicted_classes(predict_proba_gbdt(xor_model, X_xor)) == y_xor).mean())

    y_prior = np.array([0, 0, 1, 2])
    prior_model = fit_gbdt(np.zeros((4, 1)), y_prior, LearnerParams(n_rounds=0))
    priors = predict_proba_gbdt(prior_model, np.zeros((3, 1)))
    prior_ok = np.allclose(priors, [0.5, 0.25, 0.25], atol=1e-12)

    scores = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    g, _ = softmax_gradient_hessian(scores, labels)
    eps, worst_grad = 1e-5, 0.0
    for i in range(6):
        for c in range(3):
            lo, hi = scores.copy(), scores.copy()
            lo[i, c] -= eps
            hi[i, c] += eps
            numeric = (log_loss(softmax(hi), labels)
                       - log_loss(softmax(lo), labels)) * 6 / (2 * eps)
            worst_grad = max(worst_grad, abs(numeric - g[i, c]))

    elapsed = time.perf_counter() - start
    ok = (loss_monotone and xor_accuracy == 1.0 and prior_ok
          and worst_grad <= 1e-6 and elapsed < 30.0)
    _verdict(5, "learner sanity", ok,
             f"train log-loss nonincreasing, XOR training accuracy "
             f"{xor_accuracy:.2f} within 50 rounds, zero-round model matches "
             f"priors, softmax gradient within {worst_grad:.2e} of finite "
             f"differences; {elapsed:.1f}s < 30s")


def test_criterion_6_cv_analogue(synth_table):
    start = time.perf_counter()
    spec = LearnerSpec("gbdt_full", "gbdt",
                       LearnerParams(n_rounds=120, learning_rate=0.1, seed=1),
                       StackSpec())
    scores = {}
    for k in (5, 10):
        result = run_cv(synth_table, FeatureConfig(), [spec], k=k, seed=7)
        scores[k] = result.models[0].metrics.micro_f1
    spread = abs(scores[5] - scores[10])
    elapsed = time.perf_counter() - start
    ok = (scores[5] >= 0.95 and scores[10] >= 0.95 and spread <= 0.03
          and elapsed < 180.0)
    _verdict(6, "CV analogue", ok,
             f"pooled OOF micro-F1 k=5: {scores[5]:.4f}, k=10: {scores[10]:.4f} "
             f"(both >= 0.95), spread {spread:.4f} <= 0.03; "
             f"{elapsed:.0f}s < 180s")


def test_criterion_7_ensemble_ordering(synth_table):
    start = time.perf_counter()
    specs = [
        LearnerSpec("gbdt_full", "gbdt",
                    LearnerParams(n_rounds=120, learning_rate=0.1, seed=1),
                    StackSpec()),
        LearnerSpec("gbdt_plain", "gbdt",
                    LearnerParams(n_rounds=120, learning_rate=0.1, seed=2),
                    StackSpec(use_text=False, use_neighbor=False)),
        LearnerSpec("forest", "forest",
                    LearnerParams(n_trees=150, seed=3), StackSpec()),
    ]
    result = run_cv(synth_table, FeatureConfig(), specs, k=5, seed=7)
    truth = result.truth
    mats = [m.probabilities for m in result.models]
    singles = {m.model_id: m.metrics.micro_f1 for m in result.models}
    mean_f1 = micro_f1(predicted_classes(mean_blend(mats)), truth)
    optimized = optimize_weights(
        mats, truth, model_ids=[m.model_id for m in result.models], seed=0)
    elapsed = time.perf_counter() - start
    ok = (optimized.objective >= mean_f1
          and mean_f1 >= min(singles.values())
          and optimized.objective >= max(singles.values())
          and elapsed < 180.0)
    _verdict(7, "ensemble ordering", ok,
             f"optimized {optimized.objective:.4f} >= mean {mean_f1:.4f} >= "
             f"min single {min(singles.values()):.4f}; optimized >= max "
             f"single {max(singles.values()):.4f}; {elapsed:.0f}s < 180s")


def _read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def test_criterion_8_statistics_replay(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\n"
        f"observations = {out / 'obs.csv'}\n"
        f"population = {out / 'pop.csv'}\n"
        f"[output]\ndirectory = {out}\n"
        "[synth]\nn_rows = 2000\n",
        encoding="utf-8")
    for command in ("synth", "ingest", "eda"):
        dispatch(command, str(config))

    missing = {r["field"]: float(r["missing_fraction"])
               for r in _read_csv_rows(out / "missingness.csv")}
    share = {}
    for field, category in (("sensor_type", "GAN"), ("clouds", "clear"),
                            ("constellation", "Orion"),
                            ("time_of_day_category", "evening")):
        rows = _read_csv_rows(out / f"category_{field}.csv")
        share[category] = next(float(r["fraction"]) for r in rows
                               if r["category"] == category)

    checks = [
        ("missing sensor_reading", missing["sensor_reading"], 0.828),
        ("missing comment_1", missing["comment_1"], 0.429),
        ("missing comment_2", missing["comment_2"], 0.480),
        ("missing constellation", missing["constellation"], 0.121),
        ("missing limiting_magnitude", missing["limiting_magnitude"], 0.080),
        ("share GAN", share["GAN"], 0.801),
        ("share clear", share["clear"], 0.594),
        ("share Orion", share["Orion"], 0.410),
        ("share evening", share["evening"], 0.827),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 30.0
    _verdict(8, "statistics replay", ok,
             f"emitted reports reproduce all 5 missingness rates and 4 "
             f"category shares within +/-0.01 (worst dev {worst:.4f}); "
             f"{elapsed:.1f}s < 30s")


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\n"
        f"observations = {out / 'obs.csv'}\n"
        f"population = {out / 'pop.csv'}\n"
        f"[output]\ndirectory = {out}\n"
        "[synth]\nn_rows = 600\n"
        "[cv]\nk = 3\nseed = 5\n"
        "[models]\nids = boost, woods\n"
        "[model.boost]\nkind = gbdt\nrounds = 40\nlearning_rate = 0.2\n"
        "[model.woods]\nkind = forest\ntrees = 40\n",
        encoding="utf-8")

    def run_all():
        for command in COMMANDS:
            assert dispatch(command, str(config)) == 0, command
        return {p.name: hashlib.md5(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if p.is_file()}

    first = run_all()
    second = run_all()
    differing = sorted(name for name in first
                       if second.get(name) != first[name])
    elapsed = time.perf_counter() - start
    ok = (not differing and first.keys() == second.keys()
          and len(first) > 20 and elapsed < 300.0)
    _verdict(9, "determinism", ok,
             f"full CLI pipeline run twice: {len(first)} artifacts "
             f"byte-identical ({len(differing)} differ); {elapsed:.0f}s < 300s")
