"""Neighbor-mean features over exact k-nearest-neighbor search.

One kernel, `cross_neighbor_means`, computes every neighbor mean: the mean
of a reference value column over each query point's k nearest reference
points (`knn._exact_knn`: a matrix product with an explicit rounding
bound picks the candidates, which are re-ranked by (squared distance, row)
with the brute-force arithmetic, so results equal an exhaustive scan bit
for bit).

`neighbor_mean_features` is its out-of-fold use during fitting: for each
fold label, the reference is the index rows outside that fold and the
queries are the fold's own rows, so a row's feature never reads any target
inside its own fold (the fallback mean is restricted the same way). This
is what makes target-derived features safe to train on. The index holds
the training rows and nothing else, so the pool is every row of it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..orderstats import sorted_unique
from .knn import _exact_knn
from .pipeline import NeighborIndex


def neighbor_mean_features(index: NeighborIndex, values: np.ndarray,
                           k: int) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold mean of `values` over each row's k nearest neighbors.

    Returns (means, counts), both aligned with the source table. The count
    is the number of neighbor values averaged; rows with no neighbors
    outside their fold or no usable coordinates get count 0 and their
    fold-complement mean: the mean of the values outside the row's fold
    (0.0 if none).
    """
    n = len(index.fold_labels)
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ParameterError(f"values must have shape ({n},), got {values.shape}")

    means = np.empty(n)
    counts = np.zeros(n, dtype=np.int64)
    rows = index.table_rows
    row_labels = index.fold_labels[rows]
    for label in sorted_unique(index.fold_labels):
        outside = index.fold_labels != label
        fallback = float(values[outside].mean()) if outside.any() else 0.0
        means[~outside] = fallback
        query = row_labels == label
        means[rows[query]], counts[rows[query]] = cross_neighbor_means(
            index.points[~query], values[rows[~query]], index.points[query], k,
            fallback)
    return means, counts


def cross_neighbor_means(ref_points: np.ndarray, ref_values: np.ndarray,
                         query_points: np.ndarray, k: int,
                         fallback: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean of `ref_values` over each query's k nearest reference points,
    summed in rank order, and how many were averaged: k, or every
    reference point when there are fewer. No query is excluded from its
    own reference; with an empty reference every query gets `fallback`
    and count 0.
    """
    if ref_points.shape[1] != query_points.shape[1]:
        raise ParameterError("reference and query dimensionality differ")
    neighbors = _exact_knn(ref_points, query_points, k)
    counts = np.full(len(query_points), neighbors.shape[1])
    if neighbors.shape[1] == 0:
        return np.full(len(query_points), fallback), counts
    return ref_values[neighbors].sum(axis=1) / neighbors.shape[1], counts
