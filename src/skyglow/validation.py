"""Stratified K-fold orchestration, out-of-fold predictions, the micro-F1
metric family, and the small descriptive analyses (Pearson correlation,
annual trends as plain (year, mean) rows).

The CV protocol: per fold, every fitted object (feature pipeline, text
models, neighbor features, learner) sees only the k-1 training folds; the
held-out fold is predicted by that fold's model, so OOF coverage is total
and honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataset import ObservationTable, read_rows, write_rows
from .errors import (
    EmptyInputError,
    ParameterError,
    SchemaError,
    UndefinedCorrelationError,
)
from .features import N_CLASSES, FeatureConfig, target_classes
from .features.stack import StackModel, StackSpec, fit_stack
from .learners import (
    ForestModel,
    GbdtModel,
    LearnerParams,
    fit_forest,
    fit_gbdt,
    predict_proba_forest,
    predict_proba_gbdt,
)


# The leading columns of an OOF prediction file; one p_class_* column per
# class follows.
OOF_HEADER = ("row_id", "fold", "model_id")


@dataclass(frozen=True)
class FoldAssignment:
    folds: np.ndarray
    warnings: tuple[str, ...]


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> FoldAssignment:
    """Within each class, shuffle rows by seed and deal them round-robin,
    so per-class fold counts differ by at most 1."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if labels.ndim != 1 or len(labels) == 0:
        raise ParameterError("labels must be a nonempty 1-D array")
    rng = np.random.default_rng(seed)
    folds = np.empty(len(labels), dtype=np.int64)
    warnings = []
    smallest = None
    for cls in np.unique(labels):
        rows = np.nonzero(labels == cls)[0]
        smallest = len(rows) if smallest is None else min(smallest, len(rows))
        dealt = rng.permutation(rows)
        folds[dealt] = np.arange(len(dealt)) % k
    if smallest is not None and k > smallest:
        warnings.append(
            f"k={k} exceeds the smallest class count ({smallest}); "
            "some folds will lack that class")
    return FoldAssignment(folds, tuple(warnings))


def random_folds(n_rows: int, k: int, seed: int) -> FoldAssignment:
    """Unstratified round-robin deal of a seeded shuffle."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n_rows < 1:
        raise ParameterError("need at least one row")
    rng = np.random.default_rng(seed)
    folds = np.empty(n_rows, dtype=np.int64)
    folds[rng.permutation(n_rows)] = np.arange(n_rows) % k
    return FoldAssignment(folds, ())


def fold_assignment(labels: np.ndarray, k: int, seed: int,
                    stratified: bool = True) -> FoldAssignment:
    if stratified:
        return stratified_folds(labels, k, seed)
    return random_folds(len(labels), k, seed)


def fold_labels(targets: np.ndarray, k: int, seed: int,
                stratified: bool = True) -> np.ndarray:
    """Fold labels aligned with the table: folds dealt over the rows that
    have a target, -1 on rows without one."""
    keep = ~np.isnan(targets)
    labels = np.full(len(targets), -1, dtype=np.int64)
    if keep.any():
        labels[keep] = fold_assignment(targets[keep].astype(np.int64), k, seed,
                                       stratified).folds
    return labels


@dataclass(frozen=True)
class MetricsReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    confusion: np.ndarray          # [true, predicted]
    per_fold_f1: tuple[float, ...] = ()

    def write_csv(self, dest: str | Path) -> None:
        write_rows(dest, ["kind", "key", "value"], [
            ["metric", "micro_precision", self.micro_precision],
            ["metric", "micro_recall", self.micro_recall],
            ["metric", "micro_f1", self.micro_f1],
            *(["fold_f1", i, f1] for i, f1 in enumerate(self.per_fold_f1))])

    def write_confusion_csv(self, dest: str | Path) -> None:
        n = self.confusion.shape[0]
        write_rows(dest, ["true_class"] + [f"pred_{c}" for c in range(n)],
                   ([c] + [int(v) for v in self.confusion[c]] for c in range(n)))


def predicted_classes(probabilities: np.ndarray) -> np.ndarray:
    """Argmax per row; ties go to the lowest class id."""
    return np.argmax(probabilities, axis=1)


def _checked_labels(predicted: np.ndarray,
                    truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ParameterError(
            f"prediction/truth shapes differ: {predicted.shape} vs {truth.shape}")
    if len(predicted) == 0:
        raise EmptyInputError("metrics need at least one prediction")
    return predicted, truth


def _micro_scores(tp: int, total: int) -> tuple[float, float, float]:
    """Micro P, R and F1 from `tp` correct of `total` single-label
    predictions: pooled false positives and false negatives both equal
    total - tp."""
    fp = fn = total - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def classification_metrics(predicted: np.ndarray, truth: np.ndarray,
                           n_classes: int | None = None,
                           per_fold_f1: tuple[float, ...] = ()) -> MetricsReport:
    """Micro-averaged P/R/F1 from pooled counts, plus the confusion matrix.

    For single-label multiclass data the pooled false positives equal the
    pooled false negatives, so micro P = R = F1 = accuracy; the identity
    is checked, not assumed.
    """
    predicted, truth = _checked_labels(predicted, truth)
    if n_classes is None:
        n_classes = int(max(predicted.max(), truth.max())) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)

    tp = int(np.trace(confusion))
    precision, recall, f1 = _micro_scores(tp, int(confusion.sum()))
    accuracy = tp / len(predicted)
    assert precision == recall == accuracy
    assert abs(f1 - accuracy) < 1e-12
    return MetricsReport(precision, recall, f1, confusion, per_fold_f1)


def micro_f1(predicted: np.ndarray, truth: np.ndarray) -> float:
    """`classification_metrics(...).micro_f1`, counting only the correct
    predictions."""
    predicted, truth = _checked_labels(predicted, truth)
    return _micro_scores(int(np.count_nonzero(predicted == truth)),
                         len(predicted))[2]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation over complete pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError(f"columns must be 1-D and equal length, got "
                             f"{x.shape} vs {y.shape}")
    complete = ~(np.isnan(x) | np.isnan(y))
    x, y = x[complete], y[complete]
    if len(x) < 2:
        raise UndefinedCorrelationError(
            f"need >= 2 complete pairs, found {len(x)}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).mean()))
    sy = float(np.sqrt((dy * dy).mean()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in an input column")
    return float((dx * dy).mean() / (sx * sy))


def annual_trend(table: ObservationTable, field: str) -> list[tuple[int, float]]:
    """(year, mean) rows, years ascending: the mean of a numeric field per
    observation year, missing values dropped; years with no present values
    are absent."""
    values = table.numeric_column(field)
    years = table.view.numeric["year"]
    present = ~(np.isnan(values) | np.isnan(years))
    found, group = np.unique(years[present], return_inverse=True)
    sums = np.zeros(len(found))
    np.add.at(sums, group, values[present])  # in row order, as a running sum
    counts = np.bincount(group, minlength=len(found))
    return [(int(year), float(total) / int(count))
            for year, total, count in zip(found, sums, counts)]


@dataclass(frozen=True)
class LearnerSpec:
    """One model in the comparison: learner kind + params + feature stack."""

    model_id: str
    kind: str  # "gbdt" | "forest"
    params: LearnerParams
    stack: StackSpec = StackSpec()

    def __post_init__(self):
        if self.kind not in ("gbdt", "forest"):
            raise ParameterError(f"unknown learner kind: {self.kind!r}")
        if not self.model_id:
            raise ParameterError("model_id must be nonempty")


@dataclass(frozen=True)
class ModelOof:
    model_id: str
    probabilities: np.ndarray   # (n_rows, n_classes), OOF
    metrics: MetricsReport
    diagnostics: tuple[str, ...]


@dataclass(frozen=True)
class CvResult:
    row_ids: tuple[str, ...]
    truth: np.ndarray
    folds: np.ndarray
    k: int
    models: tuple[ModelOof, ...]
    warnings: tuple[str, ...]  # from the fold assignment


def labelled_rows(table: ObservationTable) -> tuple[ObservationTable, np.ndarray]:
    """The rows of `table` that have a target, and their target classes;
    `cv` and `train` fit on these alone."""
    targets = target_classes(table)
    keep = ~np.isnan(targets)
    if not keep.any():
        raise EmptyInputError("no rows with a target to fit on")
    return table.subset(keep), targets[keep]


def fit_models(table: ObservationTable, targets: np.ndarray,
               train_mask: np.ndarray, folds: np.ndarray,
               feature_config: FeatureConfig, specs: Sequence[LearnerSpec],
               seed: int, held_out: np.ndarray | None = None,
               ) -> Iterator[tuple[LearnerSpec, StackModel, np.ndarray,
                                   GbdtModel | ForestModel]]:
    """Fit the roster on the `train_mask` rows of `table`: each distinct
    feature stack once, when its first spec comes up, and each spec's
    learner on its stack's matrix. GBDT early-stops on the `held_out` rows
    when given; forests never do.

    Yields (spec, stack, X, model) in roster order, where X is the stack's
    feature matrix for ALL rows of `table`.
    """
    stacks = {}
    y = targets[train_mask].astype(np.int64)
    for spec in specs:
        if spec.stack not in stacks:
            stacks[spec.stack] = fit_stack(table, targets, train_mask, folds,
                                           feature_config, spec.stack, seed)
        stack, X = stacks[spec.stack]
        if spec.kind == "gbdt":
            validation = None if held_out is None else (
                X[held_out], targets[held_out].astype(np.int64))
            model = fit_gbdt(X[train_mask], y, spec.params,
                             validation=validation, n_classes=N_CLASSES,
                             feature_names=stack.columns)
        else:
            model = fit_forest(X[train_mask], y, spec.params,
                               n_classes=N_CLASSES, feature_names=stack.columns)
        yield spec, stack, X, model


def predict_proba(model: GbdtModel | ForestModel, X) -> np.ndarray:
    """Class probabilities from a fitted learner of either kind."""
    if isinstance(model, GbdtModel):
        return predict_proba_gbdt(model, X)
    return predict_proba_forest(model, X)


def run_cv(table: ObservationTable, feature_config: FeatureConfig,
           specs: Sequence[LearnerSpec], k: int = 5, seed: int = 0,
           stratified: bool = True) -> CvResult:
    """Cross-validate every learner spec with full OOF coverage.

    Rows without a target are excluded up front. Each fold fits the roster
    through `fit_models`, so specs sharing a feature stack configuration
    share the fold's fitted stack, and GBDT models use the held-out fold
    for early stopping.
    """
    if not specs:
        raise ParameterError("need at least one learner spec")
    ids = [s.model_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ParameterError(f"duplicate model ids: {ids}")

    cv_table, targets = labelled_rows(table)
    y = targets.astype(np.int64)
    assignment = fold_assignment(y, k, seed, stratified)
    folds = assignment.folds

    n = len(y)
    oof = {spec.model_id: np.zeros((n, N_CLASSES)) for spec in specs}
    diagnostics: dict[str, list[str]] = {spec.model_id: [] for spec in specs}

    for fold in range(k):
        held_out = folds == fold
        for spec, _, X, model in fit_models(
                cv_table, targets, ~held_out, folds, feature_config, specs,
                seed * 1000 + fold, held_out):
            oof[spec.model_id][held_out] = predict_proba(model, X[held_out])
            diagnostics[spec.model_id].extend(
                f"fold {fold}: {d}" for d in model.diagnostics)

    models = []
    for spec in specs:
        probs = oof[spec.model_id]
        pred = predicted_classes(probs)
        per_fold = tuple(micro_f1(pred[folds == f], y[folds == f])
                         for f in range(k))
        metrics = classification_metrics(pred, y, n_classes=N_CLASSES,
                                         per_fold_f1=per_fold)
        models.append(ModelOof(spec.model_id, probs, metrics,
                               tuple(diagnostics[spec.model_id])))
    return CvResult(cv_table.ids, y, folds, k, tuple(models),
                    assignment.warnings)


def write_oof_csv(dest: str | Path, row_ids: Sequence[str],
                  folds: np.ndarray, model_id: str,
                  probabilities: np.ndarray) -> None:
    """Persist OOF probabilities: row_id, fold, model_id, p_class_*."""
    n_classes = probabilities.shape[1]
    write_rows(dest, OOF_HEADER + tuple(f"p_class_{c}" for c in range(n_classes)),
               ([row_id, fold, model_id] + row.tolist()
                for row_id, fold, row in zip(row_ids, folds.tolist(),
                                             probabilities)))


def read_oof_csv(source: str | Path):
    """Inverse of write_oof_csv; returns (row_ids, folds, model_id, probs)."""
    _, rows = read_rows(source, OOF_HEADER, lambda row: (
        row[0], int(row[1]), row[2], [float(v) for v in row[3:]]), leading=True)
    if len({row[2] for row in rows}) > 1:
        raise SchemaError("mixed model ids in one OOF file")
    return (tuple(row[0] for row in rows),
            np.array([row[1] for row in rows], dtype=np.int64),
            rows[0][2] if rows else None,
            np.array([row[3] for row in rows]))
