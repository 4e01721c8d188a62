"""Fold dealing: `labelled_folds` picks the rows every fit sees and deals
their stratified or plain K-fold labels.

Numpy-only, so the `features` stage deals the folds of its out-of-fold
neighbor features without loading the learners or `validation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ObservationTable
from .errors import EmptyInputError, ParameterError
from .orderstats import sorted_unique


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
    for cls in sorted_unique(labels):
        rows = np.nonzero(labels == cls)[0]
        smallest = len(rows) if smallest is None else min(smallest, len(rows))
        dealt = rng.permutation(rows)
        folds[dealt] = np.arange(len(dealt)) % k
    if smallest is not None and k > smallest:
        warnings.append(
            f"k={k} exceeds the smallest class count ({smallest}); "
            "some folds will lack that class")
    return FoldAssignment(folds, tuple(warnings))


def fold_assignment(labels: np.ndarray, k: int, seed: int,
                    stratified: bool = True) -> FoldAssignment:
    """`stratified_folds` of `labels`; unstratified, its deal of one class,
    a round-robin deal of a seeded shuffle of every row, with no warning."""
    if stratified:
        return stratified_folds(labels, k, seed)
    return FoldAssignment(
        stratified_folds(np.zeros(len(labels), dtype=np.int64), k, seed).folds, ())


def labelled_folds(table: ObservationTable, targets: np.ndarray, k: int,
                   seed: int, stratified: bool = True,
                   ) -> tuple[ObservationTable, np.ndarray, FoldAssignment]:
    """The rows of `table` that have a target, their target classes and
    their folds: what `features`, `cv` and `train` fit on. Every fold must
    hold a row: a deal leaves one empty when k exceeds the labelled rows
    or, stratified, the largest class count."""
    keep = ~np.isnan(targets)
    if not keep.any():
        raise EmptyInputError("no rows with a target to fit on")
    targets = targets[keep]
    assignment = fold_assignment(targets, k, seed, stratified)
    empty = np.flatnonzero(np.bincount(assignment.folds, minlength=k) == 0)
    if len(empty):
        raise ParameterError(
            f"k={k} leaves folds {empty.tolist()} empty among "
            f"{len(targets)} labelled rows; lower [cv] k")
    return table.subset(keep), targets, assignment
