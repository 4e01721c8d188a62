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

Every neighbor query in the package goes through `_exact_knn`, via
`neighbors.cross_neighbor_means`: the out-of-fold features of `fit_stack`
and the prediction-time features of `apply_stack`. Each call builds one
tree over its reference.

scipy.spatial is imported on first use: it costs about 0.5 s of CPU at
start-up (it also loads scipy.sparse, about 0.2 s on its own) that the
stages without neighbor features should not pay (`textfeat` defers
scipy.sparse the same way).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

# Extra candidates per query beyond k; most queries then need one pass.
_SLACK = 8
# Relative margin between the k-th and the largest candidate distance. It
# is far wider than the rounding of either distance computation, so a row
# the tree ranked after every candidate cannot be nearer than the k-th.
_MARGIN = 1e-9


def _exact_knn(ref: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k nearest `ref` rows to each query, ranked by
    (squared distance, position); shape (len(queries), min(k, len(ref)))."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    m = len(ref)
    width = min(k, m)
    out = np.empty((len(queries), width), dtype=np.int64)
    if width == 0 or len(queries) == 0:
        return out
    from scipy.spatial import cKDTree
    tree = cKDTree(ref)
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
