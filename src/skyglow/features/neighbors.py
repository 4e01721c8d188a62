"""Neighbor-mean features over exact k-nearest-neighbor search.

The mean of a value column over each row's k nearest neighbors, with the
row itself always excluded and, in out-of-fold mode, every row sharing its
fold label excluded as well. The out-of-fold variant is what makes
target-derived features safe to train on: a row's feature never reads any
target inside its own fold (the fallback mean is restricted the same way).

An optional neighbor mask further limits which rows may serve as
neighbors (cross-validation restricts the pool to training rows); masked
rows still receive features of their own.

Neighbors come from `knn._exact_knn`: a k-d tree over the eligible pool
proposes candidates, which are re-ranked by (squared distance, row) with
the brute-force arithmetic, so results equal an exhaustive scan bit for
bit. Out-of-fold mode builds one tree per fold label, over the member rows
outside that fold, and queries the rows of the fold; own-fold rows are
never in the tree, so they cannot leak.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .knn import _exact_knn
from .pipeline import NeighborIndex


def _fold_complement_means(values: np.ndarray, eligible: np.ndarray,
                           fold_labels: np.ndarray,
                           labels: np.ndarray) -> np.ndarray:
    """For each label in `labels`, the mean of eligible values outside
    that fold (0.0 when there are none)."""
    out = np.zeros(len(labels))
    for i, label in enumerate(labels):
        pool = eligible & (fold_labels != label)
        if pool.any():
            out[i] = values[pool].mean()
    return out


def _neighbor_sums(neighbors: np.ndarray, values: np.ndarray,
                   usable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and count of the usable `values` at each row's ranked neighbor
    positions (-1 where a row has fewer neighbors than columns).

    Skipped neighbors contribute 0.0 in place, so every row sums the same
    width in the same order as a brute-force scan, bit for bit.
    """
    take = (neighbors >= 0) & usable[neighbors]
    sums = np.where(take, values[neighbors], 0.0).sum(axis=1)
    return sums, take.sum(axis=1)


def neighbor_mean_features(index: NeighborIndex, values: np.ndarray, k: int,
                           mode: str = "all",
                           neighbor_mask: np.ndarray | None = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Mean of `values` over each row's k nearest neighbors.

    Returns (means, counts), both aligned with the source table. The count
    is the number of non-missing neighbor values actually averaged; rows
    with no eligible neighbors, no usable coordinates, or only missing
    neighbor values get count 0 and the fallback mean — the global mean of
    eligible present values in mode "all", the row's fold-complement mean
    in mode "out_of_fold".
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if mode not in ("all", "out_of_fold"):
        raise ParameterError(f"mode must be 'all' or 'out_of_fold', got {mode!r}")
    if mode == "out_of_fold" and index.fold_labels is None:
        raise ParameterError("out_of_fold mode requires an index built with fold labels")
    values = np.asarray(values, dtype=float)
    if values.shape != (index.n_rows,):
        raise ParameterError(
            f"values must have shape ({index.n_rows},), got {values.shape}")
    if neighbor_mask is None:
        neighbor_mask = np.ones(index.n_rows, dtype=bool)
    else:
        neighbor_mask = np.asarray(neighbor_mask, dtype=bool)
        if neighbor_mask.shape != (index.n_rows,):
            raise ParameterError(
                f"neighbor mask must have shape ({index.n_rows},), got {neighbor_mask.shape}")

    eligible_values = ~np.isnan(values) & neighbor_mask
    if mode == "out_of_fold":
        labels, label_of_row = np.unique(index.fold_labels, return_inverse=True)
        complement = _fold_complement_means(values, eligible_values,
                                            index.fold_labels, labels)
        means = complement[label_of_row]
    else:
        global_mean = float(values[eligible_values].mean()) if eligible_values.any() else 0.0
        means = np.full(index.n_rows, global_mean)
    counts = np.zeros(index.n_rows, dtype=np.int64)

    points = index.points
    m = len(points)
    member = np.flatnonzero(neighbor_mask[index.table_rows])
    neighbors = np.full((m, min(k, m)), -1, dtype=np.int64)
    if mode == "out_of_fold":
        idx_labels = index.fold_labels[index.table_rows]
        for label in np.unique(idx_labels):
            rows = np.flatnonzero(idx_labels == label)
            pool = member[idx_labels[member] != label]
            found = pool[_exact_knn(points[pool], points[rows], k)]
            neighbors[rows, :found.shape[1]] = found
    else:
        found = member[_exact_knn(points[member], points, k + 1)]
        # drop each row itself (at most once per row), keeping rank order
        found = np.where(found == np.arange(m)[:, None], -1, found)
        found = np.take_along_axis(
            found, np.argsort(found < 0, axis=1, kind="stable"), axis=1)
        width = min(k, found.shape[1])
        neighbors[:, :width] = found[:, :width]

    sums, n_used = _neighbor_sums(neighbors, values[index.table_rows],
                                  eligible_values[index.table_rows])
    rows = index.table_rows
    counts[rows] = n_used
    has = n_used > 0
    means[rows[has]] = sums[has] / n_used[has]
    return means, counts


def cross_neighbor_means(ref_points: np.ndarray, ref_values: np.ndarray,
                         query_points: np.ndarray, k: int,
                         fallback: float) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor means for query points that are NOT members of the
    reference set (no self-exclusion): prediction-time features against a
    stored training reference.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if ref_points.shape[1] != query_points.shape[1]:
        raise ParameterError("reference and query dimensionality differ")
    present = ~np.isnan(ref_values)
    neighbors = _exact_knn(ref_points, query_points, k)
    sums, counts = _neighbor_sums(neighbors, ref_values, present)
    means = np.full(len(query_points), fallback)
    has = counts > 0
    means[has] = sums[has] / counts[has]
    return means, counts
