"""Random forest classifier on the shared binned-feature substrate.

Each tree trains on a bootstrap resample (n draws with replacement) and
splits on the Gini criterion evaluated over floor(sqrt(n_features))
candidate features drawn fresh at every node. Nodes stop at purity, at
min_samples_leaf, or when no candidate split strictly improves the
criterion. Leaves store the full class distribution of their bootstrap
rows; prediction averages leaf distributions across trees.

Split search visits only occupied bins. An empty bin has the same left
and right class counts as the occupied bin before it in its feature, so
the same score, and loses the tie to that lower position; with no
occupied bin before it, its left side is empty and the split invalid.
Class counts are integers, so the running sums over the occupied bins
are exact whatever bins they skip. GBDT cannot do the same: its gradient
sums are floats (see gbdt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .binning import BinnedMatrix, bin_matrix
from .gbdt import _class_setup, _coerce_matrix, _TreeBuilder, leaf_nodes
from .params import LearnerParams


@dataclass(frozen=True)
class ClassificationTree:
    feature: np.ndarray      # int32; -1 marks a leaf
    threshold: np.ndarray    # raw-value upper edge; x <= threshold goes left
    left: np.ndarray
    right: np.ndarray
    distribution: np.ndarray  # (n_nodes, n_classes) leaf class shares

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.distribution[leaf_nodes(self, X)]


def _gini_split(binned: BinnedMatrix, rows: np.ndarray, y: np.ndarray,
                counts: np.ndarray, feats: np.ndarray, min_leaf: int):
    """Best (feature, bin) over `feats` by the sum-of-squares Gini surrogate.

    Maximizes sum_c left_c^2/m_left + sum_c right_c^2/m_right, which is
    equivalent to minimizing the weighted Gini impurity of the children.
    Requires a strict improvement over the parent's sum_c c^2/m.

    Only occupied bins are candidates (see the module docstring). A
    feature's last occupied bin leaves the right side empty, so with
    min_leaf >= 1 the size check also rules out splitting past a
    feature's last bin.
    """
    n_classes = len(counts)
    local_bins = binned.n_bins[feats]
    local_offsets = np.concatenate([[0], np.cumsum(local_bins)[:-1]])
    local_total = int(local_bins.sum())

    # cell (class, flat bin) of every candidate code, counted in one pass
    cells = (binned.codes[rows[:, None], feats] + local_offsets[None, :]
             + (y[rows] * local_total)[:, None])
    hist = np.bincount(cells.ravel(), minlength=n_classes * local_total
                       ).reshape(n_classes, local_total)

    # Each candidate feature sorts all m rows, so a running sum over the
    # occupied columns restarts at a multiple of `counts` with every
    # feature. The sums and scores use integers up to the division.
    occupied = np.flatnonzero(hist.sum(axis=0))
    local_j = np.searchsorted(local_offsets, occupied, side="right") - 1
    left = np.cumsum(hist[:, occupied], axis=1) - counts[:, None] * local_j
    right = counts[:, None] - left

    m = len(rows)
    m_left = left.sum(axis=0)
    m_right = m - m_left
    valid = (m_left >= min_leaf) & (m_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = ((left * left).sum(axis=0) / m_left
                 + (right * right).sum(axis=0) / m_right)
    score[~valid] = -np.inf
    i = int(np.argmax(score))
    parent = float((counts.astype(float) ** 2).sum()) / m
    if not score[i] > parent:
        return None
    return (int(feats[local_j[i]]),
            int(occupied[i]) - int(local_offsets[local_j[i]]))


def _grow_tree(binned: BinnedMatrix, rows: np.ndarray, y: np.ndarray,
               n_classes: int, n_candidates: int, min_leaf: int,
               rng: np.random.Generator) -> ClassificationTree:
    builder = _TreeBuilder()
    root_counts = np.bincount(y[rows], minlength=n_classes)
    stack = [(builder.add_node(root_counts / len(rows)), rows, root_counts)]
    while stack:
        node, node_rows, counts = stack.pop()
        m = len(node_rows)
        if m < 2 * min_leaf or (counts > 0).sum() < 2:
            continue
        feats = np.sort(rng.choice(binned.n_features, size=n_candidates,
                                   replace=False))
        found = _gini_split(binned, node_rows, y, counts, feats, min_leaf)
        if found is None:
            continue
        j, t = found
        go_left = binned.codes[node_rows, j] <= t
        rows_left = node_rows[go_left]
        rows_right = node_rows[~go_left]
        counts_left = np.bincount(y[rows_left], minlength=n_classes)
        counts_right = counts - counts_left
        node_left, node_right = builder.split(
            node, j, float(binned.edges[j][t]), counts_left / len(rows_left),
            counts_right / len(rows_right))
        # push left last so it is grown first (preorder, deterministic)
        stack.append((node_right, rows_right, counts_right))
        stack.append((node_left, rows_left, counts_left))

    return builder.freeze(ClassificationTree)


@dataclass(frozen=True)
class ForestModel:
    n_classes: int
    trees: tuple[ClassificationTree, ...]
    params: LearnerParams
    feature_names: tuple[str, ...] | None
    diagnostics: tuple[str, ...]


def fit_forest(X, y, params: LearnerParams | None = None,
               n_classes: int | None = None,
               feature_names: tuple[str, ...] | None = None) -> ForestModel:
    """Grow params.n_trees independent trees on bootstrap resamples."""
    if params is None:
        params = LearnerParams()
    X = _coerce_matrix(X, feature_names)
    y, n_classes = _class_setup(y, X.shape[0], n_classes)
    binned = bin_matrix(X, params.max_bins)
    n = len(y)
    n_candidates = max(1, int(math.isqrt(binned.n_features))) if binned.n_features else 0
    if n_candidates == 0:
        raise ParameterError("cannot fit a forest with zero features")

    trees = []
    for seed in np.random.SeedSequence(params.seed).spawn(params.n_trees):
        rng = np.random.default_rng(seed)
        bootstrap = np.sort(rng.integers(0, n, size=n))
        trees.append(_grow_tree(binned, bootstrap, y, n_classes,
                                n_candidates, params.min_samples_leaf, rng))
    return ForestModel(n_classes, tuple(trees), params, feature_names, ())


def predict_proba_forest(model: ForestModel, X) -> np.ndarray:
    """Mean of per-tree leaf class distributions; rows sum to 1."""
    X = _coerce_matrix(X, model.feature_names)
    total = np.zeros((len(X), model.n_classes))
    for tree in model.trees:
        total += tree.predict_proba(X)
    return total / len(model.trees)
