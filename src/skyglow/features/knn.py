"""Exact k-nearest-neighbor search, bounded by one matrix product.

The answer is bit-identical to a brute-force scan that ranks every
reference row by (squared distance, position), where the squared distance
is the brute-force expression ``((q - r) ** 2).sum(axis=-1)``. For each
block of queries:

1. both point sets are centred on the reference mean;
2. ``approx = |q|^2 + |r|^2 - 2 q.r`` comes from one matrix product;
3. ``delta`` bounds ``|approx - d2|`` for every reference row, where
   ``d2`` is the brute-force value (see `_rounding_allowance`);
4. ``ub``, the k-th smallest ``approx`` plus ``delta``, bounds the k-th
   brute-force distance from above: the k rows with the smallest
   ``approx`` all have ``d2 <= ub``;
5. every row with ``d2 <= ub`` has ``approx <= ub + delta``, so those rows
   are the candidates;
6. each candidate's ``d2`` is recomputed with the brute-force expression
   on the original coordinates, and rows with ``d2 > ub`` are dropped;
7. the rest are ranked by (query, d2, position) and the first k of each
   query are kept.

Steps 4-6 keep every row that can reach or tie the k-th distance, so ties
and duplicate points rank as in the scan. Every neighbor query in the
package goes through `_exact_knn`, via `neighbors.cross_neighbor_means`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

# Query x reference cells per block: a few float arrays of 1 MiB each,
# which fit a 2 MiB per-core L2 cache. The neighbors do not depend on it.
_BLOCK_CELLS = 1 << 17


def _rounding_allowance(dim: int) -> float:
    """The factor c with |approx - d2| <= c * (|q|^2 + max |r|^2) + tiny,
    norms taken after centring.

    With unit roundoff u = eps / 2 and gamma_n = n u / (1 - n u), and
    x, y the centred query and reference (so |x - y|^2 <= 2 (|x|^2 + |y|^2)):

    - centring rounds each coordinate once, which moves the exact distance
      by at most 4 u (|x|^2 + |y|^2);
    - the squared norms are each within gamma_dim of exact, and the
      matrix product, in any summation order and with or without fused
      multiply-adds, is within gamma_dim |x| |y|; the two additions, in
      either order, add at most 4 u (|x|^2 + |y|^2). Together:
      (2 dim + 4) u (|x|^2 + |y|^2);
    - the brute-force d2 rounds each difference and each square once and
      sums dim terms: within gamma_{dim+2} |x - y|^2, that is
      2 (dim + 2) u (|x|^2 + |y|^2).

    The sum is (4 dim + 12) u = (2 dim + 6) eps, to first order. c is
    taken more than four times larger, 8 (dim + 4) eps, which also covers
    the second-order terms. The absolute `tiny` covers results that fall into
    the subnormal range, where the relative bound no longer holds.
    """
    return 8.0 * (dim + 4) * np.finfo(float).eps


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
    if not (np.isfinite(ref).all() and np.isfinite(queries).all()):
        raise ParameterError("neighbor points must be finite")
    center = ref.mean(axis=0)
    ref_c = ref - center
    ref_sq = (ref_c ** 2).sum(axis=1)
    factor = _rounding_allowance(ref.shape[1])
    step = max(1, _BLOCK_CELLS // m)
    for start in range(0, len(queries), step):
        q = queries[start:start + step]
        q_c = q - center
        q_sq = (q_c ** 2).sum(axis=1)
        # -2 q.r + |q|^2 + |r|^2, in place: fresh 1 MiB temporaries would
        # cost more than the arithmetic
        approx = q_c @ ref_c.T
        approx *= -2.0
        approx += q_sq[:, None]
        approx += ref_sq
        delta = factor * (q_sq + ref_sq.max()) + np.finfo(float).tiny
        ub = np.partition(approx, width - 1, axis=1)[:, width - 1] + delta
        qi, ri = np.divmod(np.flatnonzero(approx <= (ub + delta)[:, None]), m)
        d2 = ((q[qi] - ref[ri]) ** 2).sum(axis=-1)
        keep = d2 <= ub[qi]
        qi, ri, d2 = qi[keep], ri[keep], d2[keep]
        ranked = ri[np.lexsort((ri, d2, qi))]
        # qi is ascending, so each query's candidates form one run
        first = np.searchsorted(qi, np.arange(len(q)))
        out[start:start + len(q)] = ranked[first[:, None] + np.arange(width)]
    return out
