"""Exact k-nearest-neighbor search, bounded by one matrix product.

The answer is bit-identical to a brute-force scan that ranks every
reference row by (squared distance, position), where the squared distance
is the brute-force expression ``((q - r) ** 2).sum(axis=-1)``. Both point
sets are centred on the reference mean, and the screen below runs in
float32, or in float64 when the centred squared norms leave float32's
comfortable range (`_screen_dtype`). For each block of queries:

1. ``s = |r|^2 - 2 q.r`` comes from one matrix product with the
   precomputed ``-2 r`` (scaling by a power of two is exact) and one
   addition; ``approx = |q|^2 + s`` approximates the squared distance,
   with ``|q|^2`` kept out of the block;
2. ``delta`` bounds ``|approx - d2|`` for every reference row, where
   ``d2`` is the brute-force value (see `_rounding_allowance`);
3. ``ub``, the query's ``|q|^2`` plus its k-th smallest ``s`` plus
   ``delta``, bounds the k-th brute-force distance from above: the k rows
   with the smallest ``s`` all have ``d2 <= ub``;
4. every row with ``d2 <= ub`` has ``s <= ub + delta - |q|^2``, that is
   ``s`` at most the k-th smallest ``s`` plus ``2 delta``; that threshold
   is cast to the screen's dtype rounded upward (`_round_up`), and the
   rows at or below it are the candidates;
5. each candidate's ``d2`` is recomputed in float64 with the brute-force
   expression on the original coordinates, and rows with ``d2 > ub`` are
   dropped;
6. the rest are ranked by (query, d2, position) and the first k of each
   query are kept.

Steps 3-5 keep every row that can reach or tie the k-th distance, so ties
and duplicate points rank as in the scan. Every neighbor query in the
package goes through `_exact_knn`, via `neighbors.cross_neighbor_means`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

# Query x reference cells per block: a few 512 KiB float32 arrays, which
# fit a 2 MiB per-core L2 cache. The neighbors do not depend on it.
_BLOCK_CELLS = 1 << 17

# Centred squared norms for which the screen runs in float32: far below its
# overflow threshold (about 2^128) and far above its smallest normal
# (2^-126), below which rounding errors are absolute and the allowance
# would admit every row.
_FLOAT32_SCALES = (2.0 ** -64, 2.0 ** 64)


def _screen_dtype(scale: float) -> type:
    """The screen's dtype for centred squared norms of at most `scale`."""
    low, high = _FLOAT32_SCALES
    return np.float32 if low <= scale <= high else np.float64


def _rounding_allowance(dim: int, dtype: type) -> float:
    """The factor c with |approx - d2| <= c * (|q|^2 + max |r|^2) + tiny,
    norms taken after centring and `tiny` the dtype's smallest normal.

    With u the unit roundoff of the screen's dtype (eps / 2), u64 that of
    float64, gamma_n = n u / (1 - n u), and a, b the exactly centred query
    and reference (so |a - b|^2 <= 2 (|a|^2 + |b|^2) and 2 |a.b| <=
    |a|^2 + |b|^2):

    - the centred coordinates are rounded to float64 and then to the
      dtype, x = a (1 + t) with |t| <= u + 2 u64, and likewise y; the exact
      -2 x.y then differs from -2 a.b by at most (2 u + 4 u64) (|a|^2 +
      |b|^2), to first order;
    - the matrix product with the exact -2 y, in any summation order and
      with or without fused multiply-adds, is within gamma_dim of
      2 |x| |y|: dim u (|a|^2 + |b|^2);
    - |r|^2 is summed in float64 from the float64 coordinates and cast to
      the dtype: within (u + (dim + 2) u64) |b|^2 of |b|^2;
    - the one addition in the block rounds once, within u (2 |x| |y| +
      |y|^2), at most 2 u (|a|^2 + |b|^2);
    - |q|^2 is summed in float64 (within (dim + 2) u64 |a|^2), and the
      shift by it, ub and the threshold are formed in float64, each
      rounding by at most 2 u64 (|a|^2 + |b|^2) or so;
    - the brute-force d2 rounds each difference and each square once and
      sums dim terms: within gamma_{dim+2}(u64) |a - b|^2, that is
      2 (dim + 2) u64 (|a|^2 + |b|^2).

    The sum is (dim + 5) u + (4 dim + 18) u64 to first order, at most
    (5 dim + 23) u. c is taken more than twice as large, 8 (dim + 4) eps =
    16 (dim + 4) u, which also covers the second-order terms. The
    cast of the threshold to float32 rounds upward, so it loses nothing.
    Underflow adds at most half the dtype's smallest subnormal per
    operation, about 3 dim + 8 of them, which the absolute `tiny` covers.

    How tight c is: on 90 random cases shaped like those of
    `test_float32_screen_needs_its_whole_allowance` (queries within 1e-3
    of a unit shell, 2000 units from most reference rows, k = 10), c / 64
    drops a true neighbor in 72, and c / 2 to c / 32 in none.
    """
    return 8.0 * (dim + 4) * float(np.finfo(dtype).eps)


def _round_up(values: np.ndarray, dtype: type) -> np.ndarray:
    """`values` (float64) cast to `dtype`, each rounded to the nearest
    representable value at or above it."""
    cast = values.astype(dtype)
    return np.where(cast < values, np.nextafter(cast, dtype(np.inf)), cast)


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
    q_c = queries - center
    q_sq = (q_c ** 2).sum(axis=1)
    ref_max = ref_sq.max()
    dtype = _screen_dtype(max(ref_max, q_sq.max()))
    neg2_ref_t = (-2.0 * ref_c.astype(dtype)).T
    ref_sq_s = ref_sq.astype(dtype)
    q_s = q_c.astype(dtype)
    delta = (_rounding_allowance(ref.shape[1], dtype) * (q_sq + ref_max)
             + float(np.finfo(dtype).tiny))
    step = max(1, _BLOCK_CELLS // m)
    for start in range(0, len(queries), step):
        stop = start + step
        q = queries[start:stop]
        # |r|^2 - 2 q.r, in place: a fresh temporary would cost more than
        # the addition
        s = q_s[start:stop] @ neg2_ref_t
        s += ref_sq_s
        kth = np.partition(s, width - 1, axis=1)[:, width - 1].astype(float)
        ub = q_sq[start:stop] + kth + delta[start:stop]
        limit = _round_up(kth + 2.0 * delta[start:stop], dtype)
        qi, ri = np.divmod(np.flatnonzero(s <= limit[:, None]), m)
        d2 = ((q[qi] - ref[ri]) ** 2).sum(axis=-1)
        keep = d2 <= ub[qi]
        qi, ri, d2 = qi[keep], ri[keep], d2[keep]
        # candidates arrive in (query, position) order, so two stable sorts
        # rank them by (query, d2, position)
        by_d2 = np.argsort(d2, kind="stable")
        ranked = ri[by_d2[np.argsort(qi[by_d2], kind="stable")]]
        # qi is ascending, so each query's candidates form one run
        first = np.searchsorted(qi, np.arange(len(q)))
        out[start:stop] = ranked[first[:, None] + np.arange(width)]
    return out
