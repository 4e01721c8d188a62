"""Stratified K-fold orchestration, out-of-fold predictions, the micro-F1
metric family, and the small descriptive analyses (Pearson correlation,
annual trends).

The CV protocol: per fold, every fitted object (feature pipeline, text
models, neighbor features, learner) sees only the k-1 training folds; the
held-out fold is predicted by that fold's model, so OOF coverage is total
and honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .dataset import ObservationTable, csv_reader, csv_writer, parsed_rows
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


@dataclass(frozen=True)
class FoldAssignment:
    folds: np.ndarray
    k: int
    seed: int
    stratified: bool
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
    return FoldAssignment(folds, k, seed, True, tuple(warnings))


def random_folds(n_rows: int, k: int, seed: int) -> FoldAssignment:
    """Unstratified round-robin deal of a seeded shuffle."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if n_rows < 1:
        raise ParameterError("need at least one row")
    rng = np.random.default_rng(seed)
    folds = np.empty(n_rows, dtype=np.int64)
    folds[rng.permutation(n_rows)] = np.arange(n_rows) % k
    return FoldAssignment(folds, k, seed, False, ())


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

    def write_csv(self, dest: TextIO | str | Path) -> None:
        with csv_writer(dest) as writer:
            writer.writerow(["kind", "key", "value"])
            writer.writerow(["metric", "micro_precision", repr(self.micro_precision)])
            writer.writerow(["metric", "micro_recall", repr(self.micro_recall)])
            writer.writerow(["metric", "micro_f1", repr(self.micro_f1)])
            for i, f1 in enumerate(self.per_fold_f1):
                writer.writerow(["fold_f1", i, repr(f1)])

    def write_confusion_csv(self, dest: TextIO | str | Path) -> None:
        with csv_writer(dest) as writer:
            n = self.confusion.shape[0]
            writer.writerow(["true_class"] + [f"pred_{c}" for c in range(n)])
            for c in range(n):
                writer.writerow([c] + [int(v) for v in self.confusion[c]])


def predicted_classes(probabilities: np.ndarray) -> np.ndarray:
    """Argmax per row; ties go to the lowest class id."""
    return np.argmax(probabilities, axis=1)


def classification_metrics(predicted: np.ndarray, truth: np.ndarray,
                           n_classes: int | None = None,
                           per_fold_f1: tuple[float, ...] = ()) -> MetricsReport:
    """Micro-averaged P/R/F1 from pooled counts, plus the confusion matrix.

    For single-label multiclass data the pooled false positives equal the
    pooled false negatives, so micro P = R = F1 = accuracy; the identity
    is checked, not assumed.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ParameterError(
            f"prediction/truth shapes differ: {predicted.shape} vs {truth.shape}")
    if len(predicted) == 0:
        raise EmptyInputError("metrics need at least one prediction")
    if n_classes is None:
        n_classes = int(max(predicted.max(), truth.max())) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)

    tp = int(np.trace(confusion))
    fp = int(confusion.sum()) - tp  # column residuals pooled over classes
    fn = int(confusion.sum()) - tp  # row residuals pooled over classes
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    accuracy = tp / len(predicted)
    assert precision == recall == accuracy
    assert abs(f1 - accuracy) < 1e-12
    return MetricsReport(precision, recall, f1, confusion, per_fold_f1)


def micro_f1(predicted: np.ndarray, truth: np.ndarray) -> float:
    return classification_metrics(predicted, truth).micro_f1


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


@dataclass(frozen=True)
class AnnualTrend:
    field: str
    entries: tuple[tuple[int, float], ...]  # (year, mean), years ascending

    def write_csv(self, dest: TextIO | str | Path) -> None:
        with csv_writer(dest) as writer:
            writer.writerow(["year", f"mean_{self.field}"])
            for year, mean in self.entries:
                writer.writerow([year, repr(mean)])


def annual_trend(table: ObservationTable, field: str) -> AnnualTrend:
    """Mean of a numeric field per observation year, missing values
    dropped; years with no present values are absent from the output."""
    values = table.numeric_column(field)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for i, rec in enumerate(table):
        if rec.time is None or np.isnan(values[i]):
            continue
        year = rec.time.year
        sums[year] = sums.get(year, 0.0) + float(values[i])
        counts[year] = counts.get(year, 0) + 1
    entries = tuple((year, sums[year] / counts[year]) for year in sorted(sums))
    return AnnualTrend(field, entries)


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
    seed: int
    models: tuple[ModelOof, ...]

    def model(self, model_id: str) -> ModelOof:
        for m in self.models:
            if m.model_id == model_id:
                return m
        raise ParameterError(f"no such model in CV result: {model_id!r}")


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
        stack, matrix = stacks[spec.stack]
        X = matrix.values
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

    targets = target_classes(table)
    keep = ~np.isnan(targets)
    if not keep.any():
        raise EmptyInputError("no rows with a target to cross-validate")
    cv_table = ObservationTable(rec for i, rec in enumerate(table) if keep[i])
    folds = fold_labels(targets, k, seed, stratified)[keep]
    targets = targets[keep]
    y = targets.astype(np.int64)

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
    return CvResult(cv_table.ids, y, folds, k, seed, tuple(models))


def write_oof_csv(dest: TextIO | str | Path, row_ids: Sequence[str],
                  folds: np.ndarray, model_id: str,
                  probabilities: np.ndarray) -> None:
    """Persist OOF probabilities: row_id, fold, model_id, p_class_*."""
    n_classes = probabilities.shape[1]
    with csv_writer(dest) as writer:
        writer.writerow(["row_id", "fold", "model_id"]
                        + [f"p_class_{c}" for c in range(n_classes)])
        for i, row_id in enumerate(row_ids):
            writer.writerow([row_id, int(folds[i]), model_id]
                            + [repr(float(p)) for p in probabilities[i]])


def read_oof_csv(source: TextIO | str | Path):
    """Inverse of write_oof_csv; returns (row_ids, folds, model_id, probs)."""
    with csv_reader(source) as reader:
        header = next(reader, None)
        if header is None or header[:3] != ["row_id", "fold", "model_id"]:
            raise SchemaError("not an OOF prediction file: bad header")
        rows = parsed_rows(source, reader, len(header), lambda row: (
            row[0], int(row[1]), row[2], [float(v) for v in row[3:]]))
    if len({row[2] for row in rows}) > 1:
        raise SchemaError("mixed model ids in one OOF file")
    return (tuple(row[0] for row in rows),
            np.array([row[1] for row in rows], dtype=np.int64),
            rows[0][2] if rows else None,
            np.array([row[3] for row in rows]))
