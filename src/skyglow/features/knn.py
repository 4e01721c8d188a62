"""Exact k-nearest-neighbor search on a k-d tree.

A k-d tree (Bentley, CACM 1975; Friedman, Bentley & Finkel, TOMS 1977)
proposes candidates; the answer is then fixed by this module's own
arithmetic, so it is bit-identical to a brute-force scan that ranks every
reference row by (squared distance, position):

- the squared distance of each candidate is recomputed as
  ``((q - r) ** 2).sum(axis=-1)``, the brute-force expression;
- candidates are ranked by position, then stably by that distance;
- a query is accepted only when its k-th distance lies clearly below the
  largest candidate distance, so no row outside the candidate set can
  reach or tie the k-th. Otherwise the candidate count doubles, up to the
  whole reference. This covers ties and duplicate points.

scipy.spatial is imported on first use: it costs about 0.25 s of start-up
that the stages without neighbor features should not pay (`textfeat` does
the same for scipy.sparse).
"""

from __future__ import annotations

import numpy as np

# Extra candidates per query beyond k; most queries then need one pass.
_SLACK = 8
# Relative margin between the k-th and the largest candidate distance. It
# is far wider than the rounding of either distance computation, so a row
# the tree ranked after every candidate cannot be nearer than the k-th.
_MARGIN = 1e-9


def _kd_tree(points: np.ndarray):
    from scipy.spatial import cKDTree
    return cKDTree(points)


def _exact_knn(ref: np.ndarray, queries: np.ndarray, k: int,
               tree=None) -> np.ndarray:
    """Positions of the k nearest `ref` rows to each query, ranked by
    (squared distance, position); shape (len(queries), min(k, len(ref))).

    `tree` is a prebuilt `_kd_tree(ref)` for callers that query one
    reference repeatedly.
    """
    m = len(ref)
    width = min(k, m)
    out = np.empty((len(queries), width), dtype=np.int64)
    if width == 0 or len(queries) == 0:
        return out
    if tree is None:
        tree = _kd_tree(ref)
    pending = np.arange(len(queries))
    wide = min(k + _SLACK, m)
    while len(pending):
        q = queries[pending]
        # wide <= m, so the tree never pads a result with missing rows
        _, cand = tree.query(q, k=wide)
        cand = np.sort(cand.reshape(len(pending), wide), axis=1)
        d2 = ((q[:, None, :] - ref[cand]) ** 2).sum(axis=-1)
        rank = np.argsort(d2, axis=1, kind="stable")
        d2 = np.take_along_axis(d2, rank, axis=1)
        done = (wide == m) | (d2[:, width - 1] < d2[:, -1] * (1.0 - _MARGIN))
        out[pending[done]] = np.take_along_axis(cand[done], rank[done, :width],
                                                axis=1)
        pending = pending[~done]
        wide = min(2 * wide, m)
    return out
