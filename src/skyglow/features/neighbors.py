"""Neighbor-mean features over exact k-nearest-neighbor search.

One kernel, `cross_neighbor_means`, computes every neighbor mean: the mean
of a reference value column over each query point's k nearest reference
points (`knn._exact_knn`: a matrix product with an explicit rounding
bound picks the candidates, which are re-ranked by (squared distance, row)
with the brute-force arithmetic, so results equal an exhaustive scan bit
for bit).

`neighbor_mean_features` is its out-of-fold use during fitting: for each
fold label, the reference is the member rows outside that fold and the
queries are the fold's own rows, so a row's feature never reads any target
inside its own fold (the fallback mean is restricted the same way). This
is what makes target-derived features safe to train on. A neighbor mask
further limits which rows may serve as neighbors (fitting restricts the
pool to the training rows with a target); masked rows still receive
features of their own.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..orderstats import sorted_unique
from .knn import _exact_knn
from .pipeline import NeighborIndex


def neighbor_mean_features(index: NeighborIndex, values: np.ndarray, k: int,
                           neighbor_mask: np.ndarray,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold mean of `values` over each row's k nearest neighbors.

    Returns (means, counts), both aligned with the source table. The count
    is the number of non-missing neighbor values actually averaged; rows
    with no eligible neighbors, no usable coordinates, or only missing
    neighbor values get count 0 and their fold-complement mean: the mean
    of the eligible present values outside the row's fold (0.0 if none).
    """
    n = len(index.fold_labels)
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ParameterError(f"values must have shape ({n},), got {values.shape}")
    neighbor_mask = np.asarray(neighbor_mask, dtype=bool)
    if neighbor_mask.shape != (n,):
        raise ParameterError(
            f"neighbor mask must have shape ({n},), got {neighbor_mask.shape}")

    eligible_values = ~np.isnan(values) & neighbor_mask
    means = np.empty(n)
    counts = np.zeros(n, dtype=np.int64)
    rows = index.table_rows
    row_labels = index.fold_labels[rows]
    member = neighbor_mask[rows]
    for label in sorted_unique(index.fold_labels):
        outside = eligible_values & (index.fold_labels != label)
        fallback = float(values[outside].mean()) if outside.any() else 0.0
        means[index.fold_labels == label] = fallback
        query = row_labels == label
        ref = member & ~query
        means[rows[query]], counts[rows[query]] = cross_neighbor_means(
            index.points[ref], values[rows[ref]], index.points[query], k,
            fallback)
    return means, counts


def cross_neighbor_means(ref_points: np.ndarray, ref_values: np.ndarray,
                         query_points: np.ndarray, k: int,
                         fallback: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the present `ref_values` over each query's k nearest
    reference points, and how many were averaged. No query is excluded
    from its own reference; a query with no present neighbor value gets
    `fallback` and count 0. Missing reference values still take their
    neighbor slot.
    """
    if ref_points.shape[1] != query_points.shape[1]:
        raise ParameterError("reference and query dimensionality differ")
    neighbors = _exact_knn(ref_points, query_points, k)
    take = ~np.isnan(ref_values)[neighbors]
    # skipped neighbors add 0.0 in place, so every row sums in rank order
    sums = np.where(take, ref_values[neighbors], 0.0).sum(axis=1)
    counts = take.sum(axis=1)
    means = np.full(len(query_points), fallback)
    has = counts > 0
    means[has] = sums[has] / counts[has]
    return means, counts
