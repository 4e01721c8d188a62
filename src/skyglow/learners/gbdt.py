"""Histogram-based gradient-boosted trees with a multiclass softmax
objective: one regression tree per class per round, fitted to the
log-loss gradient (softmax minus one-hot) with diagonal hessian p(1-p).

A class with no training rows is not boosted. Its gradient is its own
probability on every row, so each tree fitted to it could only push its
score further below the ln(1e-12) its prior starts at. It gets a
single-leaf tree of value 0.0 in every round instead, and its score stays
exactly ln(1e-12). Compared with boosting it, its probabilities rise by
far less than 1e-15: by about 1e-21 on the 2k-row synthetic table, where
no other class's probability moved at all.

Trees grow leaf-wise (best-first) on flattened per-feature histograms;
each split's sibling histogram comes from parent-minus-child subtraction,
so a node costs one pass over the smaller child only. Only nodes that can
split are histogrammed and searched: a node with fewer than
2 * min_samples_leaf rows cannot give both children min_samples_leaf rows,
and no node can split once the tree has max_leaves leaves. Skipping them
leaves every tree unchanged. Gains, tie-breaking
(lowest feature index, then lowest bin), and the leaf value
-sum(g)/(sum(h)+lambda) * learning_rate follow the standard second-order
formulation. With <= max_bins distinct values per feature the binning is
lossless, making the histogram split identical to exact greedy search.

Split search computes gains only at the feasible positions: bins that are
not a feature's last and leave min_samples_leaf rows on both sides. Each
gain is the same expression of the same running sums, and the argmax over
the feasible positions in order is the lowest-position maximum, as over
the full array with the rest masked. Empty bins are not skipped. The
running sums are one cumulative sum over the whole flattened histogram,
less the sum before each feature, so their bits depend on every entry
before them, and a sibling histogram made by subtraction can hold a
rounding residue in a bin no row falls in.

A node whose rows all carry one gradient g != 0 and one hessian eta >= 0
cannot split: with lambda > 0, a rows on the left and b = n - a on the
right, twice its exact gain is g^2 [F(a) + F(b) - F(n)], F(c) = c^2 /
(c eta + lambda), and F(a) + F(b) < F(n) because c / (c eta + lambda)
increases in c. `_every_gain_negative` decides, without the search, when
every float gain is certainly negative too, so `_best_split` would
return None; the node then stays a leaf, and otherwise it is searched as
any other. The bound, with u = 2^-53, B bins, p features, N = p n count
entries and m = min_samples_leaf (every side has a, b, n >= m rows):

- entries: the histograms, built or made by subtraction, differ from the
  exact c_b g and c_b eta of each bin; R, the sum of |difference| over
  the bins, is measured, within u (N |g| + (B + 1) R) of the true one;
- running sums: the cumulative sum adds B terms in order, so each
  running sum is within u B A of the exact prefix of the entries, A =
  N |g| + R bounding every partial sum. A left sum is the difference of
  two running sums, rounded once (global-prefix cancellation), so it is
  within delta = R + (2B + 1) u A of a g;
- totals: the node's stored total is within tau of n g, measured as
  |total - n g| plus u n |g| for the rounding of n g; the right sum,
  total minus left sum, is then within Delta = delta + tau + u n |g| of
  b g, and so is every numerator of the gain formula. Each is
  c g (1 + rho) with |rho| <= r = Delta / (m |g|), and each denominator
  (c eta + lambda)(1 + kappa) with |kappa| <= k, the hessian's Delta
  over m eta + lambda;
- terms: each of the three terms, x * x / (y + lambda), rounds three
  times, so it is F(c) g^2 (1 + t) with |t| <= 2r + k + 3u to first
  order, and <= 3r + 2k + 5u = theta when r and k are at most 1/8 (both
  taken at twice their first-order bound, which covers every
  higher-order term while every count stays below 2^24);
- sign: F(a) + F(b) <= q F(n) with q the value at a = m, the maximum of a
  convex function over [m, n - m], so the computed children's sum is at
  most q F(n) g^2 (1 + theta)(1 + u) and the parent term at least
  F(n) g^2 (1 - theta). Every gain is negative when 1 - q > 2 theta + 2u,
  with 1 - q = m b lambda / n^2 [1 / (m eta + lambda) + 1 / (b eta +
  lambda)], b = n - m; the check asks for 4 (theta + u), covering the
  rounding of the check itself.

|g|, n |g|, lambda, n eta and a nonzero eta within 2^-200 .. 2^200 keep
every product and quotient a normal number, so each rounding is relative and the gain,
below -F(n) g^2 (1 - q) / 4, stays a negative normal number when halved.
Outside that range, or with lambda so small that the margin is not
there, the node is searched.

Trees are traversed by partition: each internal node splits the row
indices that reach it (`leaf_nodes`), so a row meets the same comparisons
as on its own descent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, SchemaError
from .binning import BinnedMatrix, bin_matrix, check_matrix
from .params import LearnerParams

_PRIOR_FLOOR = 1e-12  # classes absent from training get ln(floor), not -inf
_LOSS_CLIP = 1e-15
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Magnitudes for which every product and quotient of the gain formula is a
# normal number (module docstring), and the count below which the
# first-order rounding bound, doubled, covers the higher-order terms.
_GAIN_SCALES = (2.0 ** -200, 2.0 ** 200)
_MAX_COUNT = 2 ** 24


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probabilities[np.arange(len(labels)), labels], _LOSS_CLIP, None)
    return float(-np.log(p).mean())


def softmax_gradient_hessian(scores: np.ndarray,
                             labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row, per-class d/ds and d2/ds2 of multiclass log-loss."""
    return _gradient_hessian(softmax(scores), labels)


def _gradient_hessian(p: np.ndarray,
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softmax_gradient_hessian from the probabilities p = softmax(scores)."""
    g = p.copy()
    g[np.arange(len(labels)), labels] -= 1.0
    h = p * (1.0 - p)
    return g, h


def leaf_nodes(tree, X: np.ndarray) -> np.ndarray:
    """Index of the leaf each row of X reaches in `tree`, which has the
    node arrays feature, threshold, left and right.

    Walks the internal nodes depth-first, each carrying the indices of its
    rows: a node gathers its feature over its rows, compares once and
    hands each child its share. Every row meets the same comparisons as on
    a row-by-row descent, so the leaf indices are the same."""
    nodes = np.zeros(len(X), dtype=np.int32)
    if tree.feature[0] < 0:  # a single-leaf tree
        return nodes
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, rows = stack.pop()
        f = tree.feature[node]
        if f < 0:
            nodes[rows] = node
            continue
        go_left = X[rows, f] <= tree.threshold[node]
        stack.append((tree.right[node], rows[~go_left]))
        stack.append((tree.left[node], rows[go_left]))
    return nodes


@dataclass(frozen=True)
class RegressionTree:
    feature: np.ndarray    # int32; -1 marks a leaf
    threshold: np.ndarray  # raw-value upper edge; x <= threshold goes left
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray      # leaf payout, already scaled by the learning rate

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[leaf_nodes(self, X)]


class _TreeBuilder:
    """Accumulates the node arrays of either tree kind. Every node starts
    as a leaf holding its payload (a leaf value or a class distribution);
    `split` turns a leaf into an internal node with two new leaves."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.payload: list = []

    def add_node(self, payload) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.payload.append(payload)
        return len(self.feature) - 1

    def split(self, node: int, feature: int, threshold: float,
              left_payload, right_payload) -> tuple[int, int]:
        left = self.add_node(left_payload)
        right = self.add_node(right_payload)
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        return left, right

    def freeze(self, tree_class):
        return tree_class(
            np.array(self.feature, dtype=np.int32),
            np.array(self.threshold),
            np.array(self.left, dtype=np.int32),
            np.array(self.right, dtype=np.int32),
            np.array(self.payload))


def _splittable_mask(binned: BinnedMatrix) -> np.ndarray:
    mask = np.ones(binned.total_bins, dtype=bool)
    mask[binned.offsets + binned.n_bins - 1] = False
    return mask


def _best_split(binned: BinnedMatrix, hists, totals, splittable, params):
    """Highest-gain (feature, bin) for one node, or None, from its stacked
    gradient, hessian and count histograms and their totals.

    Ties resolve to the lowest flattened position, i.e. lowest feature
    index then lowest bin. Gain may be zero but not negative: zero-gain
    splits are what let depth-2 structure (e.g. XOR) emerge from a
    symmetric root where no single split helps yet.
    """
    total_g, total_h, total_c = totals
    lam = params.l2_regularization
    # Entry offsets[j] + b of a row's running sum, less the sum before
    # feature j, is the sum over bins 0..b of feature j: the left side of
    # a split of feature j after bin b.
    running = np.cumsum(hists, axis=1)
    base = np.zeros((3, binned.n_features))
    base[:, 1:] = running[:, binned.offsets[1:] - 1]
    running -= np.repeat(base, binned.n_bins, axis=1)
    gl, hl, cl = running
    valid = (splittable & (cl >= params.min_samples_leaf)
             & (total_c - cl >= params.min_samples_leaf))
    feasible = np.flatnonzero(valid)
    if feasible.size == 0:
        return None
    gl = gl[feasible]
    hl = hl[feasible]
    gr = total_g - gl
    hr = total_h - hl
    parent = total_g * total_g / (total_h + lam)
    gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    i = int(np.argmax(gains))
    if not gains[i] >= 0.0:
        return None
    k = int(feasible[i])
    j = int(binned.bin_feature[k])
    t = k - int(binned.offsets[j])
    return gains[i], j, t, (float(gl[i]), float(hl[i]), float(cl[k]))


def _shared_gradient(g: np.ndarray, h: np.ndarray,
                     rows: np.ndarray) -> tuple[float, float] | None:
    """The one (gradient, hessian) pair every row in `rows` carries, or
    None when the rows carry more than one. The first and last rows are
    compared first: in most nodes that can split they already differ."""
    if g[rows[0]] != g[rows[-1]]:
        return None
    values = g[rows]
    if not (values == values[0]).all():
        return None
    weights = h[rows]
    if not (weights == weights[0]).all():
        return None
    return float(values[0]), float(weights[0])


def _every_gain_negative(binned: BinnedMatrix, hists: np.ndarray, totals,
                         n: int, value: float, weight: float, params) -> bool:
    """True when every float gain `_best_split` would compute for a node of
    n rows, each with gradient `value` and hessian `weight`, is certainly
    negative: the rounding bound of the module docstring."""
    low, high = _GAIN_SCALES
    lam = params.l2_regularization
    m = params.min_samples_leaf
    size = abs(value)
    if not (low <= size and n * size <= high and low <= lam <= high
            and (weight == 0.0 or low <= weight) and n * weight <= high
            and n < _MAX_COUNT and binned.total_bins < _MAX_COUNT):
        return False
    u = _UNIT_ROUNDOFF
    mass = n * binned.n_features
    sweep = (2 * binned.total_bins + 1) * u
    differences = np.multiply(hists[2], np.array([[value], [weight]]))
    np.subtract(hists[:2], differences, out=differences)
    residues = np.abs(differences, out=differences).sum(axis=1)

    def spread(residue: float, v: float, total: float) -> float:
        """Delta: how far each numerator may be from its count times v."""
        residue += u * mass * abs(v)
        left = residue + sweep * (mass * abs(v) + residue)
        return left + abs(total - n * v) + 2 * u * n * abs(v)

    r = 2 * spread(float(residues[0]), value, totals[0]) / (m * size)
    k = 2 * spread(float(residues[1]), weight, totals[1]) / (m * weight + lam)
    if not (r <= 0.125 and k <= 0.125):
        return False
    theta = 3 * r + 2 * k + 5 * u
    b = n - m
    slack = m * b * lam / (n * n) * (1 / (m * weight + lam) + 1 / (b * weight + lam))
    return slack > 4 * (theta + u)


def _histograms(binned: BinnedMatrix, rows: np.ndarray, g: np.ndarray,
                h: np.ndarray) -> np.ndarray:
    """(3, total_bins) gradient, hessian and count histograms of `rows`."""
    return np.stack([binned.histogram(rows, g), binned.histogram(rows, h),
                     binned.histogram(rows)])


def _fit_tree(binned: BinnedMatrix, g: np.ndarray, h: np.ndarray,
              params: LearnerParams, splittable: np.ndarray) -> RegressionTree:
    """One leaf-wise tree. Only nodes that can still split are histogrammed
    and searched: a split needs min_samples_leaf rows on each side, so a
    node with fewer than twice that many rows stays a leaf, and so does
    every node once the tree has max_leaves leaves. A node whose rows share
    one gradient and hessian stays a leaf unsearched when
    `_every_gain_negative` shows that no split has a nonnegative gain."""
    lam = params.l2_regularization
    lr = params.learning_rate
    min_split_rows = 2 * params.min_samples_leaf
    builder = _TreeBuilder()
    heap: list[tuple] = []
    tick = 0  # FIFO tie-break for equal gains

    def consider(node: int, rows: np.ndarray, hists: np.ndarray, totals):
        nonlocal tick
        shared = _shared_gradient(g, h, rows)
        if shared is not None and _every_gain_negative(
                binned, hists, totals, len(rows), *shared, params):
            return
        found = _best_split(binned, hists, totals, splittable, params)
        if found is not None:
            gain, j, t, left_totals = found
            heapq.heappush(heap, (-gain, tick, node, rows, hists, totals,
                                  j, t, left_totals))
            tick += 1

    all_rows = np.arange(binned.n_rows)
    root_totals = (float(g.sum()), float(h.sum()), float(binned.n_rows))
    root = builder.add_node(-root_totals[0] / (root_totals[1] + lam) * lr)
    if binned.n_rows >= min_split_rows and params.max_leaves > 1:
        consider(root, all_rows, _histograms(binned, all_rows, g, h), root_totals)
    leaves = 1
    while heap and leaves < params.max_leaves:
        _, _, node, rows, hists, totals, j, t, left_totals = heapq.heappop(heap)
        go_left = binned.codes[rows, j] <= t
        rows_left = rows[go_left]
        rows_right = rows[~go_left]
        right_totals = tuple(p - l for p, l in zip(totals, left_totals))

        node_left, node_right = builder.split(
            node, j, float(binned.edges[j][t]),
            -left_totals[0] / (left_totals[1] + lam) * lr,
            -right_totals[0] / (right_totals[1] + lam) * lr)
        leaves += 1
        if (leaves == params.max_leaves
                or max(len(rows_left), len(rows_right)) < min_split_rows):
            continue

        # build the smaller child's histograms, derive the sibling's by subtraction
        if len(rows_left) <= len(rows_right):
            left_hists = _histograms(binned, rows_left, g, h)
            right_hists = hists - left_hists
        else:
            right_hists = _histograms(binned, rows_right, g, h)
            left_hists = hists - right_hists
        if len(rows_left) >= min_split_rows:
            consider(node_left, rows_left, left_hists, left_totals)
        if len(rows_right) >= min_split_rows:
            consider(node_right, rows_right, right_hists, right_totals)
    return builder.freeze(RegressionTree)


@dataclass(frozen=True)
class GbdtModel:
    n_classes: int
    init_scores: np.ndarray
    trees: tuple[tuple[RegressionTree, ...], ...]  # [round][class]
    params: LearnerParams
    feature_names: tuple[str, ...] | None
    train_losses: tuple[float, ...]
    validation_losses: tuple[float, ...] | None
    diagnostics: tuple[str, ...]


def _coerce_matrix(X, feature_names):
    """X as a checked float array (`check_matrix`) with one column per
    feature name when names are given. The names are only stored: the
    caller keeps a matrix's columns in the order they name."""
    X = check_matrix(X)
    if feature_names is not None and X.shape[1] != len(feature_names):
        raise SchemaError(
            f"matrix has {X.shape[1]} columns, model expects {len(feature_names)}")
    return X


def _class_setup(y, n_rows, n_classes):
    y = np.asarray(y)
    if y.shape != (n_rows,):
        raise ParameterError(f"labels must have shape ({n_rows},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == np.floor(y)):
            raise ParameterError("labels must be integers")
        y = y.astype(np.int64)
    else:
        y = y.astype(np.int64)
    if n_rows == 0:
        raise ParameterError("cannot fit on an empty matrix")
    if y.min() < 0:
        raise ParameterError("labels must be >= 0")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    elif y.max() >= n_classes:
        raise ParameterError(f"label {int(y.max())} out of range for {n_classes} classes")
    return y, n_classes


def fit_gbdt(X, y, params: LearnerParams | None = None,
             validation: tuple | None = None,
             n_classes: int | None = None,
             feature_names: tuple[str, ...] | None = None) -> GbdtModel:
    """Boost softmax log-loss for params.n_rounds rounds (one tree per
    class per round), starting from per-class scores ln(prior).

    A class with no training rows gets `zero_tree`, one single leaf of
    value 0.0 shared by every round, so its score stays at
    ln(_PRIOR_FLOOR). With a validation pair supplied, training stops once
    validation log-loss has not improved for `early_stopping_patience`
    rounds and the model keeps only the trees up to the best round.
    Single-class targets yield a prior-only model with a diagnostic.
    """
    if params is None:
        params = LearnerParams()
    X = _coerce_matrix(X, feature_names)
    y, n_classes = _class_setup(y, X.shape[0], n_classes)

    class_rows = np.bincount(y, minlength=n_classes)
    priors = class_rows / len(y)
    init_scores = np.log(np.clip(priors, _PRIOR_FLOOR, None))
    diagnostics: list[str] = []
    if np.count_nonzero(class_rows) < 2:
        diagnostics.append("single-class target: boosting skipped, prior-only model")
        return GbdtModel(n_classes, init_scores, (), params, feature_names,
                         (), None, tuple(diagnostics))
    if params.n_rounds and X.shape[1] == 0:
        raise ParameterError("cannot fit boosted trees with zero features")

    if validation is not None:
        Xv, yv = validation
        Xv = _coerce_matrix(Xv, feature_names)
        yv, _ = _class_setup(yv, Xv.shape[0], n_classes)
        val_scores = np.tile(init_scores, (len(yv), 1))
        val_losses: list[float] = []
        best_loss = np.inf
        best_round = -1
    else:
        val_losses = None

    binned = bin_matrix(X, params.max_bins)
    splittable = _splittable_mask(binned)
    scores = np.tile(init_scores, (len(y), 1))
    rounds: list[tuple[RegressionTree, ...]] = []
    train_losses: list[float] = []
    zero = _TreeBuilder()
    zero.add_node(0.0)
    zero_tree = zero.freeze(RegressionTree)

    # the softmax that scores a round's train loss is the next round's
    # gradient input
    probabilities = softmax(scores)
    for round_no in range(params.n_rounds):
        g, h = _gradient_hessian(probabilities, y)
        round_trees = []
        for c in range(n_classes):
            if class_rows[c]:
                tree = _fit_tree(binned, g[:, c], h[:, c], params, splittable)
            else:
                tree = zero_tree
            round_trees.append(tree)
            scores[:, c] += tree.predict(X)
        rounds.append(tuple(round_trees))
        probabilities = softmax(scores)
        train_losses.append(log_loss(probabilities, y))

        if validation is not None:
            for c, tree in enumerate(round_trees):
                val_scores[:, c] += tree.predict(Xv)
            loss = log_loss(softmax(val_scores), yv)
            val_losses.append(loss)
            if loss < best_loss:
                best_loss = loss
                best_round = round_no
            elif round_no - best_round >= params.early_stopping_patience:
                diagnostics.append(
                    f"early stop after round {round_no}, best round {best_round}")
                rounds = rounds[:best_round + 1]
                train_losses = train_losses[:best_round + 1]
                val_losses = val_losses[:best_round + 1]
                break

    return GbdtModel(n_classes, init_scores, tuple(rounds), params,
                     feature_names, tuple(train_losses),
                     tuple(val_losses) if val_losses is not None else None,
                     tuple(diagnostics))


def decision_scores_gbdt(model: GbdtModel, X) -> np.ndarray:
    X = _coerce_matrix(X, model.feature_names)
    scores = np.tile(model.init_scores, (len(X), 1))
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            scores[:, c] += tree.predict(X)
    return scores


def predict_proba_gbdt(model: GbdtModel, X) -> np.ndarray:
    """Softmax of accumulated scores; rows sum to 1."""
    return softmax(decision_scores_gbdt(model, X))
