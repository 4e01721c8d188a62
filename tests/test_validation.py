
import numpy as np
import pytest

from skyglow import validation

from skyglow.errors import (
    EmptyInputError,
    ParameterError,
    SchemaError,
    UndefinedCorrelationError,
)
from skyglow.dataset import annual_trend, pearson
from skyglow.features.pipeline import FeatureConfig, target_classes
from skyglow.features import stack as stack_module
from skyglow.features.stack import StackSpec, apply_stack
from skyglow.folds import fold_assignment, stratified_folds
from skyglow.learners import LearnerParams
from skyglow.metrics import read_oof_csv, write_oof_csv
from skyglow.validation import (
    LearnerSpec,
    classification_metrics,
    micro_f1,
    predict_proba,
    predicted_classes,
    run_cv,
)

from helpers import grid_table, make_table, obs, records
from oracles import accuracy_oracle, micro_prf_oracle, pearson_oracle


def test_stratified_folds_balanced_per_class():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(10, 200))
        labels = rng.integers(0, 5, size=n)
        k = int(rng.integers(2, 8))
        fa = stratified_folds(labels, k, seed=int(rng.integers(1000)))
        assert fa.folds.min() >= 0 and fa.folds.max() < k
        for cls in np.unique(labels):
            counts = np.bincount(fa.folds[labels == cls], minlength=k)
            assert counts.max() - counts.min() <= 1


def test_stratified_folds_deterministic_and_seeded():
    labels = np.random.default_rng(2).integers(0, 3, size=60)
    a = stratified_folds(labels, 4, seed=9).folds
    b = stratified_folds(labels, 4, seed=9).folds
    c = stratified_folds(labels, 4, seed=10).folds
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stratified_folds_warns_when_k_exceeds_class():
    labels = np.array([0, 0, 0, 0, 1])  # class 1 has a single row
    fa = stratified_folds(labels, 3, seed=0)
    assert fa.warnings and "smallest class" in fa.warnings[0]


def test_fold_validation_errors():
    with pytest.raises(ParameterError):
        stratified_folds(np.array([0, 1]), 1, 0)
    with pytest.raises(ParameterError):
        stratified_folds(np.array([]), 2, 0)
    with pytest.raises(ParameterError):
        fold_assignment(np.array([]), 2, 0, stratified=False)


def test_random_folds_partition():
    # the unstratified deal ignores the labels and warns of no small class
    labels = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0])
    fa = fold_assignment(labels, 4, 3, stratified=False)
    counts = np.bincount(fa.folds, minlength=4)
    assert counts.sum() == 17 and counts.max() - counts.min() <= 1
    assert fa.folds.tolist() == [3, 0, 1, 2, 1, 0, 3, 2, 1, 0, 0, 0, 2, 1, 2, 3, 3]
    assert fa.warnings == ()


def test_metrics_identity_and_hand_case():
    # pred [A,B,A] vs truth [A,B,B]: 2 hits of 3
    report = classification_metrics(np.array([0, 1, 0]), np.array([0, 1, 1]))
    assert report.micro_precision == report.micro_recall == 2 / 3
    assert report.micro_f1 == 2 / 3
    p, r = report.micro_precision, report.micro_recall
    assert report.micro_f1 == 2 * p * r / (p + r)


def test_metrics_match_pooled_count_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 100))
        c = int(rng.integers(2, 6))
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        report = classification_metrics(pred, truth, n_classes=c)
        op, orec, of1 = micro_prf_oracle(pred, truth, c)
        assert report.micro_precision == op
        assert report.micro_recall == orec
        assert abs(report.micro_f1 - of1) < 1e-15
        assert report.micro_f1 == pytest.approx(accuracy_oracle(pred, truth),
                                                abs=1e-12)


def test_confusion_matrix_orientation():
    report = classification_metrics(np.array([1, 1, 0]), np.array([0, 1, 0]),
                                    n_classes=2)
    # confusion[true, predicted]
    assert report.confusion.tolist() == [[1, 1], [0, 1]]


def test_metrics_validation():
    with pytest.raises(EmptyInputError):
        classification_metrics(np.array([]), np.array([]))
    with pytest.raises(ParameterError):
        classification_metrics(np.array([0, 1]), np.array([0]))


def test_predicted_classes_tie_goes_to_lowest():
    probs = np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]])
    assert predicted_classes(probs).tolist() == [0, 1]


def test_pearson_matches_oracle_and_errors():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50)
    y = 2 * x + rng.normal(size=50)
    x[::7] = np.nan
    assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, np.nan], [np.nan, 2.0])
    with pytest.raises(ParameterError):
        pearson([1.0, 2.0], [1.0])


def test_annual_trend_means():
    from datetime import datetime
    table = make_table([
        obs(id="a", time=datetime(2012, 1, 1), limiting_magnitude=4.0),
        obs(id="b", time=datetime(2012, 6, 1), limiting_magnitude=6.0),
        obs(id="c", time=datetime(2014, 1, 1), limiting_magnitude=3.0),
        obs(id="d", time=datetime(2013, 1, 1), limiting_magnitude=None),
    ])
    trend = annual_trend(table, "limiting_magnitude")
    assert trend == [(2012, 5.0), (2014, 3.0)]


SMALL_PARAMS = LearnerParams(n_rounds=10, learning_rate=0.3,
                             min_samples_leaf=2, n_trees=10,
                             early_stopping_patience=5)
PLAIN = StackSpec(use_text=False, use_neighbor=False)


def test_run_cv_oof_coverage_and_metrics():
    table = grid_table(120, seed=8)
    specs = [LearnerSpec("g", "gbdt", SMALL_PARAMS, PLAIN),
             LearnerSpec("f", "forest", SMALL_PARAMS, PLAIN)]
    result = run_cv(table, FeatureConfig(), specs, k=4, seed=0)
    n = len(result.truth)
    assert len(result.row_ids) == n
    assert sorted(np.unique(result.folds)) == [0, 1, 2, 3]
    for model in result.models:
        assert model.probabilities.shape[0] == n
        # every row got a real prediction (rows sum to 1)
        assert np.allclose(model.probabilities.sum(axis=1), 1.0)
        assert len(model.metrics.per_fold_f1) == 4
    assert [model.model_id for model in result.models] == ["g", "f"]


def test_cv_fits_see_no_held_out_row(monkeypatch):
    # each row's first comment carries its id, so a fitted corpus names
    # its rows
    table = make_table(
        record._replace(comment_1=f"{record.id} sky note")
        for record in records(grid_table(60, seed=12)))
    ids = set(table.ids)
    folds = []  # per fold: the held-out table, the fits' rows, the models

    def record(name, rows_of):
        original = getattr(stack_module, name)

        def recorded(*args, **kwargs):
            folds[-1]["fits"].append((name, rows_of(args[0])))
            return original(*args, **kwargs)
        monkeypatch.setattr(stack_module, name, recorded)

    record("fit_feature_pipeline", lambda fitted: set(fitted.ids))
    record("build_neighbor_index", lambda fitted: set(fitted.ids))
    record("fit_text_features",
           lambda corpus: ids & {token for doc in corpus for token in doc})
    fit_models = validation.fit_models

    def recording(*args):
        fold = {"held_out": args[-1][0], "fits": [], "models": []}
        folds.append(fold)
        for spec, stack, X, model in fit_models(*args):
            fold["models"].append((spec.model_id, stack, model))
            yield spec, stack, X, model
    monkeypatch.setattr(validation, "fit_models", recording)

    specs = [LearnerSpec("g", "gbdt", SMALL_PARAMS),
             LearnerSpec("f", "forest", SMALL_PARAMS)]
    result = run_cv(table, FeatureConfig(knn_k=3), specs, k=3, seed=0)
    assert len(folds) == 3
    position = {row_id: i for i, row_id in enumerate(result.row_ids)}
    oof = {model.model_id: model.probabilities for model in result.models}
    for fold in folds:
        held_out = fold["held_out"]
        assert sorted(name for name, _ in fold["fits"]) == [
            "build_neighbor_index", "fit_feature_pipeline",
            "fit_text_features", "fit_text_features"]
        for name, rows in fold["fits"]:
            assert not rows & set(held_out.ids), name
        # the first comment column's corpus is every training row
        assert ids - set(held_out.ids) in [
            rows for name, rows in fold["fits"] if name == "fit_text_features"]
        rows = [position[row_id] for row_id in held_out.ids]
        for model_id, stack, model in fold["models"]:
            assert np.array_equal(
                oof[model_id][rows],
                predict_proba(model, apply_stack(stack, held_out))), model_id


def test_run_cv_rejects_duplicate_ids_and_empty():
    table = grid_table(30, seed=10)
    spec = LearnerSpec("m", "gbdt", SMALL_PARAMS, PLAIN)
    with pytest.raises(ParameterError):
        run_cv(table, FeatureConfig(), [spec, spec], k=2, seed=0)
    with pytest.raises(ParameterError):
        run_cv(table, FeatureConfig(), [], k=2, seed=0)
    no_target = make_table([obs(id=f"r{i}", limiting_magnitude=None)
                                  for i in range(10)])
    with pytest.raises(EmptyInputError):
        run_cv(no_target, FeatureConfig(), [spec], k=2, seed=0)


def test_learner_spec_validation():
    with pytest.raises(ParameterError):
        LearnerSpec("m", "svm", SMALL_PARAMS, PLAIN)
    # a model id names files, so it is one plain file-name part
    for model_id in ("", "a/b", "../m", ".m", "a b", "m\\n", "m:1"):
        with pytest.raises(ParameterError, match="model_id must be"):
            LearnerSpec(model_id, "gbdt", SMALL_PARAMS, PLAIN)
    for model_id in ("gbdt_full", "m-1.v2", "_x", "7"):
        assert LearnerSpec(model_id, "gbdt", SMALL_PARAMS, PLAIN).model_id == model_id


def test_l2_regularization_must_be_finite_and_positive():
    for l2 in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
        with pytest.raises(ParameterError, match="l2_regularization must be "
                                                 "finite and > 0"):
            LearnerParams(l2_regularization=l2)
    assert LearnerParams(l2_regularization=1e-9).l2_regularization == 1e-9


def test_stack_spec_sizes_must_be_positive():
    for name in ("vocab_cap", "svd_rank"):
        for value in (0, -1):
            with pytest.raises(ParameterError, match=f"{name} must be >= 1"):
                StackSpec(**{name: value})
    assert StackSpec(vocab_cap=1, svd_rank=1).svd_rank == 1


def test_oof_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(8), size=6)
    folds = np.array([0, 1, 0, 1, 2, 2])
    ids = [f"r{i}" for i in range(6)]
    path = tmp_path / "oof.csv"
    write_oof_csv(path, ids, folds, "gbdt_full", probs)
    rid, rfolds, model_id, rprobs = read_oof_csv(path)
    assert list(rid) == ids
    assert rfolds.tolist() == folds.tolist()
    assert model_id == "gbdt_full"
    assert np.array_equal(rprobs, probs)  # repr round-trip is exact


def test_oof_csv_short_row_names_the_line(tmp_path):
    path = tmp_path / "oof.csv"
    write_oof_csv(path, ["r0", "r1"], np.array([0, 1]), "m", np.full((2, 8), 0.125))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 3: expected 11 fields, got 10"):
        read_oof_csv(path)
