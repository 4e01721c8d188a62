"""The micro-F1 metric family, the OOF prediction and CV-truth files as
numpy arrays, and the numpy side of the CSV matrix path (`write_matrix`),
through which the feature matrix, the OOF and blended probabilities and
the predictions are written. The files' layouts are declared in `dataset`.

Nothing here fits a model: the module imports numpy, `dataset` and
`errors` alone, so `ensemble` loads no feature or learner code.
`validation` imports the metric names it calls from here. `eda` loads
none of this module: its statistics (Pearson correlation, annual trends)
are the pure-Python ones of `dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import (CONFUSION, CV_TRUTH, METRICS, OOF, read_rows,
                      write_coded_rows, write_rows)
from .errors import EmptyInputError, ParameterError, SchemaError


@dataclass(frozen=True)
class MetricsReport:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    confusion: np.ndarray          # [true, predicted]
    per_fold_f1: tuple[float, ...] = ()

    def write_csv(self, dest: str | Path) -> None:
        write_rows(dest, METRICS.header(), [
            ["metric", "micro_precision", self.micro_precision],
            ["metric", "micro_recall", self.micro_recall],
            ["metric", "micro_f1", self.micro_f1],
            *(["fold_f1", i, f1] for i, f1 in enumerate(self.per_fold_f1))])

    def write_confusion_csv(self, dest: str | Path) -> None:
        n = self.confusion.shape[0]
        write_rows(dest, CONFUSION.header(width=n),
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


def write_oof_csv(dest: str | Path, row_ids: Sequence[str],
                  folds: np.ndarray, model_id: str,
                  probabilities: np.ndarray) -> None:
    """Persist OOF probabilities: row_id, fold, model_id, p_class_*."""
    write_matrix(dest, OOF.header(width=probabilities.shape[1]),
                 ([row_id, fold, model_id]
                  for row_id, fold in zip(row_ids, folds.tolist())),
                 probabilities)


def write_matrix(dest: str | Path, header: Sequence[str],
                 labels: Iterable[Sequence[object]], matrix: np.ndarray) -> None:
    """Write row i as `labels[i]` followed by row i of the 2-d float
    `matrix`: the bytes of `write_rows(dest, header, (label + row.tolist()
    for label, row in zip(labels, matrix)))`, with each distinct value
    formatted once (`write_coded_rows`). Values are told apart by their
    bits, so -0.0 and 0.0 keep their own text. The codes go to the writer
    one row at a time, so no Python list holds them all."""
    if matrix.shape[1] == 0:
        write_rows(dest, header, labels)
        return
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.uint64)
    distinct, codes = np.unique(bits, return_inverse=True)
    write_coded_rows(dest, header, labels, distinct.view(np.float64).tolist(),
                     map(np.ndarray.tolist, codes.reshape(bits.shape)))


def read_oof_csv(source: str | Path):
    """Inverse of write_oof_csv; returns (row_ids, folds, model_id, probs)."""
    _, rows = read_rows(source, OOF)
    if len({row[2] for row in rows}) > 1:
        raise SchemaError("mixed model ids in one OOF file")
    return (tuple(row[0] for row in rows),
            np.array([row[1] for row in rows], dtype=np.int64),
            rows[0][2] if rows else None,
            np.array([row[3:] for row in rows]))


def read_cv_truth(source: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """cv_truth.csv as (row_ids, folds, truth), the folds and classes as
    int64 arrays."""
    _, rows = read_rows(source, CV_TRUTH)
    return ([row[0] for row in rows],
            np.array([row[1] for row in rows], dtype=np.int64),
            np.array([row[2] for row in rows], dtype=np.int64))
