"""Equal-frequency feature binning shared by both tree learners.

Columns with up to `max_bins` distinct values are binned losslessly (one
bin per distinct value), so split search on the histogram is identical to
exact greedy search. Wider columns get quantile-spaced edges. A value
equal to an edge falls in the lower bin, matching searchsorted's 'left'
side, and the stored raw thresholds reproduce the same partition at
predict time via `x <= threshold`. The distinct values come from
`orderstats.sorted_unique`, numpy's own sort-and-compare path for floats
without its `numpy.ma` import, so of -0.0 and 0.0 the one `np.unique`
keeps is kept.

`bin_matrix` also stores the count histogram of every row, which is what
a GBDT tree's root asks for. Returning a copy of it is exact: a count is
the same integer however it is made. A weighted histogram of every row in
order is a bincount over `positions` itself, with no gather of rows; it
adds each bin's weights in the same row order as a gather of every row
would, so the sums are bit-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..orderstats import sorted_unique


def compute_bin_edges(values: np.ndarray, max_bins: int) -> np.ndarray:
    """Strictly increasing upper edges; len(edges) + 1 bins, <= max_bins."""
    distinct = sorted_unique(values)
    if distinct.size <= max_bins:
        return distinct[:-1].astype(float)
    ranked = np.sort(values)
    n = ranked.size
    ranks = (np.arange(1, max_bins) * n) // max_bins
    edges = sorted_unique(ranked[ranks - 1])
    return edges[edges < distinct[-1]]


def bin_column(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.searchsorted(edges, values, side="left").astype(np.int32)


@dataclass(frozen=True)
class BinnedMatrix:
    codes: np.ndarray                 # (n_rows, n_features) int32 bin ids
    edges: tuple[np.ndarray, ...]     # per feature, raw-value upper edges
    n_bins: np.ndarray                # per feature, len(edges) + 1
    offsets: np.ndarray               # feature start in the flattened histogram
    total_bins: int
    positions: np.ndarray             # codes + offsets: each cell's histogram entry
    counts: np.ndarray                # count histogram of every row
    bin_feature: np.ndarray           # feature of each histogram entry

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    def histogram(self, rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Flattened per-feature histogram over `rows`.

        `weights` is aligned with the full matrix (one entry per stored
        row); only `weights[rows]` is accumulated. Entry offsets[j] + b
        collects the weight (or count) of rows whose feature-j code is b.
        One bincount covers every feature at once. When `rows` is every
        row in order, the counts are a copy of the stored `counts` and the
        weights are accumulated over `positions` without a gather.
        """
        if len(rows) == self.n_rows and _is_every_row(rows):
            if weights is None:
                return self.counts.copy()
            flat = self.positions.ravel()
            per_row = np.asarray(weights, dtype=float)
        else:
            flat = self.positions[rows].ravel()
            if weights is None:
                return np.bincount(flat, minlength=self.total_bins).astype(float)
            per_row = np.asarray(weights, dtype=float)[rows]
        return np.bincount(flat, weights=np.repeat(per_row, self.n_features),
                           minlength=self.total_bins)


def _is_every_row(rows: np.ndarray) -> bool:
    """True when `rows` is 0, 1, ..., len(rows) - 1."""
    return bool(len(rows) == 0 or (rows[0] == 0 and (np.diff(rows) == 1).all()))


def check_matrix(X) -> np.ndarray:
    """X as a float array; raises unless it is 2-D and finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ParameterError(f"feature matrix must be 2-D, got shape {X.shape}")
    if X.size and not np.isfinite(X).all():
        raise ParameterError("feature matrix contains non-finite values")
    return X


def bin_matrix(X: np.ndarray, max_bins: int) -> BinnedMatrix:
    """Fit edges on X and encode it. Raises on non-finite input."""
    X = check_matrix(X)
    edges = tuple(compute_bin_edges(X[:, j], max_bins) for j in range(X.shape[1]))
    codes = np.empty(X.shape, dtype=np.int32)
    for j, e in enumerate(edges):
        codes[:, j] = bin_column(X[:, j], e)
    n_bins = np.array([len(e) + 1 for e in edges], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(n_bins)[:-1]])
    positions = codes + offsets[None, :]
    total_bins = int(n_bins.sum())
    counts = np.bincount(positions.ravel(), minlength=total_bins).astype(float)
    bin_feature = np.repeat(np.arange(X.shape[1]), n_bins)
    return BinnedMatrix(codes, edges, n_bins, offsets, total_bins, positions,
                        counts, bin_feature)
