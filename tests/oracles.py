"""Straight-line reference implementations the real code is checked against.

Everything here favors obviousness over speed: plain loops, dense algebra,
exhaustive search. If a test disagrees with the package, trust this file.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations

import numpy as np


def tokenize_oracle(text: str | None) -> list[str]:
    """Character loop: lowercase, split on every non-alphanumeric run,
    drop 1-char tokens."""
    if text is None:
        return []
    tokens = []
    current = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return [t for t in tokens if len(t) >= 2]


def brute_knn(points: np.ndarray, query_row: int, k: int,
              banned: set[int] = frozenset()) -> list[int]:
    """O(n^2)-style scan for the k nearest rows to `query_row`, excluding
    itself and `banned`; ties broken by the smaller row index."""
    scored = []
    for j in range(len(points)):
        if j == query_row or j in banned:
            continue
        d2 = 0.0
        for a, b in zip(points[query_row], points[j]):
            d2 += (a - b) ** 2
        scored.append((d2, j))
    scored.sort()
    return [j for _, j in scored[:k]]


def neighbor_mean_oracle(points: np.ndarray, values: np.ndarray, k: int,
                         fold_labels: np.ndarray | None = None,
                         eligible: np.ndarray | None = None,
                         fallback: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Loop version of the out-of-fold neighbor-mean feature."""
    n = len(points)
    if eligible is None:
        eligible = np.ones(n, dtype=bool)
    means = np.zeros(n)
    counts = np.zeros(n)
    for i in range(n):
        banned = {j for j in range(n) if not eligible[j]}
        if fold_labels is not None:
            banned |= {j for j in range(n) if fold_labels[j] == fold_labels[i]}
        neigh = brute_knn(points, i, k, banned)
        vals = [values[j] for j in neigh if not math.isnan(values[j])]
        if vals:
            means[i] = sum(vals) / len(vals)
            counts[i] = len(vals)
        else:
            if fallback is not None:
                means[i] = fallback
            else:
                # fallback prior: mean of every value the row was allowed to
                # see (fold complement when folds are in play, else global --
                # the row's own value is part of the global prior)
                pool = [values[j] for j in range(n)
                        if j not in banned and not math.isnan(values[j])]
                means[i] = sum(pool) / len(pool) if pool else 0.0
            counts[i] = 0.0
    return means, counts


def dense_svd(matrix: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Full LAPACK decomposition truncated to `rank`: (singular_values,
    components) with components rows = right singular vectors."""
    _, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    return s[:rank], vt[:rank]


def tfidf_oracle(documents: list[str], tokenize) -> tuple[list[str], np.ndarray]:
    """Dict-arithmetic TF-IDF: idf = ln((1+N)/(1+df)) + 1, raw counts,
    L2-normalized rows. Vocabulary = every token, sorted."""
    token_lists = [tokenize(doc) for doc in documents]
    df: dict[str, int] = {}
    for tokens in token_lists:
        for tok in set(tokens):
            df[tok] = df.get(tok, 0) + 1
    vocab = sorted(df)
    n_docs = len(documents)
    rows = np.zeros((n_docs, len(vocab)))
    for i, tokens in enumerate(token_lists):
        for tok in tokens:
            rows[i, vocab.index(tok)] += 1.0
        for j, tok in enumerate(vocab):
            idf = math.log((1 + n_docs) / (1 + df[tok])) + 1.0
            rows[i, j] *= idf
        norm = math.sqrt(float((rows[i] ** 2).sum()))
        if norm > 0:
            rows[i] /= norm
    return vocab, rows


def exact_greedy_split(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                       l2: float, min_samples_leaf: int):
    """Best (gain, feature, threshold) over every feature and every
    distinct-value threshold, by direct enumeration. Gain must be
    non-negative; returns None when no split qualifies."""
    n, p = X.shape
    G, H = g.sum(), h.sum()
    parent = G * G / (H + l2)
    best = None
    for j in range(p):
        for thr in np.unique(X[:, j])[:-1]:
            left = X[:, j] <= thr
            nl = int(left.sum())
            if nl < min_samples_leaf or n - nl < min_samples_leaf:
                continue
            gl, hl = g[left].sum(), h[left].sum()
            gr, hr = G - gl, H - hl
            gain = 0.5 * (gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent)
            if gain < 0.0:
                continue
            if best is None or gain > best[0] + 1e-12:
                best = (gain, j, float(thr))
    return best


def _flat_histogram(binned, rows, weights=None):
    flat = (binned.codes[rows] + binned.offsets[None, :]).ravel()
    if weights is None:
        return np.bincount(flat, minlength=binned.total_bins).astype(float)
    return np.bincount(flat, weights=np.repeat(weights[rows], binned.n_features),
                       minlength=binned.total_bins)


def _segment_cumsum(flat, binned):
    total = np.cumsum(flat)
    base = np.concatenate([[0.0], total[binned.offsets[1:] - 1]])
    return total - np.repeat(base, binned.n_bins)


def _every_node_best_split(binned, hists, totals, splittable, params):
    total_g, total_h, total_c = totals
    lam = params.l2_regularization
    gl, hl, cl = (_segment_cumsum(hist, binned) for hist in hists)
    gr, hr, cr = total_g - gl, total_h - hl, total_c - cl
    parent = total_g * total_g / (total_h + lam)
    gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
    valid = (splittable & (cl >= params.min_samples_leaf)
             & (cr >= params.min_samples_leaf))
    gains[~valid] = -np.inf
    k = int(np.argmax(gains))
    if not gains[k] >= 0.0:
        return None
    j = int(np.searchsorted(binned.offsets, k, side="right") - 1)
    return gains[k], j, k - int(binned.offsets[j]), (float(gl[k]), float(hl[k]),
                                                     float(cl[k]))


def every_node_tree(binned, g, h, params):
    """Leaf-wise GBDT tree that histograms and searches every node, leaf cap
    or not; returns the (feature, threshold, left, right, value) arrays."""
    lam, lr = params.l2_regularization, params.learning_rate
    splittable = np.ones(binned.total_bins, dtype=bool)
    splittable[binned.offsets + binned.n_bins - 1] = False
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node(totals):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-totals[0] / (totals[1] + lam) * lr)
        return len(feature) - 1

    heap, tick = [], 0

    def consider(node, rows, hists, totals):
        nonlocal tick
        found = _every_node_best_split(binned, hists, totals, splittable, params)
        if found is not None:
            gain, j, t, left_totals = found
            heapq.heappush(heap, (-gain, tick, node, rows, hists, totals,
                                  j, t, left_totals))
            tick += 1

    rows = np.arange(binned.n_rows)
    totals = (float(g.sum()), float(h.sum()), float(binned.n_rows))
    consider(add_node(totals), rows,
             tuple(_flat_histogram(binned, rows, w) for w in (g, h, None)), totals)
    leaves = 1
    while heap and leaves < params.max_leaves:
        _, _, node, rows, hists, totals, j, t, left_totals = heapq.heappop(heap)
        go_left = binned.codes[rows, j] <= t
        rows_left, rows_right = rows[go_left], rows[~go_left]
        right_totals = tuple(p - q for p, q in zip(totals, left_totals))
        small_rows = rows_left if len(rows_left) <= len(rows_right) else rows_right
        small = tuple(_flat_histogram(binned, small_rows, w) for w in (g, h, None))
        other = tuple(p - q for p, q in zip(hists, small))
        left_hists, right_hists = ((small, other) if small_rows is rows_left
                                   else (other, small))
        node_left, node_right = add_node(left_totals), add_node(right_totals)
        feature[node] = j
        threshold[node] = float(binned.edges[j][t])
        left[node], right[node] = node_left, node_right
        leaves += 1
        consider(node_left, rows_left, left_hists, left_totals)
        consider(node_right, rows_right, right_hists, right_totals)
    return (np.array(feature, dtype=np.int32), np.array(threshold),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
            np.array(value))


def gini_split_oracle(binned, rows, y, counts, feats, min_leaf):
    """The forest's Gini split search with its own per-feature running
    class counts; same signature and result as forest._gini_split."""
    n_classes = len(counts)
    local_bins = binned.n_bins[feats]
    local_offsets = np.concatenate([[0], np.cumsum(local_bins)[:-1]])
    local_total = int(local_bins.sum())
    hist = np.zeros((n_classes, local_total))
    flat = binned.codes[rows][:, feats] + local_offsets[None, :]
    y_rows = y[rows]
    for c in range(n_classes):
        if counts[c]:
            hist[c] = np.bincount(flat[y_rows == c].ravel(), minlength=local_total)
    running = np.cumsum(hist, axis=1)
    base_rows = np.concatenate(
        [np.zeros((n_classes, 1)), running[:, local_offsets[1:] - 1]], axis=1)
    left = running - np.repeat(base_rows, local_bins, axis=1)
    right = counts[:, None] - left
    m = float(len(rows))
    m_left = left.sum(axis=0)
    m_right = m - m_left
    splittable = np.ones(local_total, dtype=bool)
    splittable[local_offsets + local_bins - 1] = False
    valid = splittable & (m_left >= min_leaf) & (m_right >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = ((left * left).sum(axis=0) / m_left
                 + (right * right).sum(axis=0) / m_right)
    score[~valid] = -np.inf
    k = int(np.argmax(score))
    if not score[k] > float((counts.astype(float) ** 2).sum()) / m:
        return None
    local_j = int(np.searchsorted(local_offsets, k, side="right") - 1)
    return int(feats[local_j]), k - int(local_offsets[local_j])


def exact_greedy_gini(X: np.ndarray, y: np.ndarray, n_classes: int,
                      min_samples_leaf: int, features=None):
    """Best Gini-gain split by enumeration: maximize sum(cl^2)/nl +
    sum(cr^2)/nr, requiring strict improvement over the parent score."""
    n, p = X.shape
    if features is None:
        features = range(p)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent = float((parent_counts ** 2).sum()) / n
    best = None
    for j in features:
        for thr in np.unique(X[:, j])[:-1]:
            left = X[:, j] <= thr
            nl = int(left.sum())
            if nl < min_samples_leaf or n - nl < min_samples_leaf:
                continue
            cl = np.bincount(y[left], minlength=n_classes).astype(float)
            cr = parent_counts - cl
            score = float((cl ** 2).sum()) / nl + float((cr ** 2).sum()) / (n - nl)
            if score <= parent:
                continue
            if best is None or score > best[0] + 1e-12:
                best = (score, j, float(thr))
    return best


def accuracy_oracle(predicted, truth) -> float:
    hits = sum(1 for p, t in zip(predicted, truth) if p == t)
    return hits / len(truth)


def micro_prf_oracle(predicted, truth, n_classes: int):
    """Micro precision/recall/F1 from explicit per-class TP/FP/FN pools."""
    tp = fp = fn = 0
    for c in range(n_classes):
        tp += sum(1 for p, t in zip(predicted, truth) if p == c and t == c)
        fp += sum(1 for p, t in zip(predicted, truth) if p == c and t != c)
        fn += sum(1 for p, t in zip(predicted, truth) if p != c and t == c)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def pearson_oracle(x, y) -> float:
    pairs = [(a, b) for a, b in zip(x, y)
             if not (math.isnan(a) or math.isnan(b))]
    n = len(pairs)
    mx = sum(a for a, _ in pairs) / n
    my = sum(b for _, b in pairs) / n
    cov = sum((a - mx) * (b - my) for a, b in pairs) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a, _ in pairs) / n)
    sy = math.sqrt(sum((b - my) ** 2 for _, b in pairs) / n)
    return cov / (sx * sy)


def simplex_grid(n_models: int, step: float = 0.01):
    """Every nonnegative weight vector on the step grid summing to 1."""
    ticks = round(1.0 / step)
    if n_models == 2:
        for a in range(ticks + 1):
            yield np.array([a, ticks - a], dtype=float) / ticks
        return
    if n_models == 3:
        for a in range(ticks + 1):
            for b in range(ticks + 1 - a):
                yield np.array([a, b, ticks - a - b], dtype=float) / ticks
        return
    raise NotImplementedError("grid oracle covers 2 or 3 models")


def grid_weight_search(matrices, truth, step: float = 0.01):
    """Exhaustive best micro-F1 over the weight grid."""
    best_f1, best_w = -1.0, None
    for w in simplex_grid(len(matrices), step):
        blended = sum(wi * m for wi, m in zip(w, matrices))
        pred = np.argmax(blended, axis=1)
        f1 = micro_prf_oracle(pred, truth, blended.shape[1])[2]
        if f1 > best_f1:
            best_f1, best_w = f1, w
    return best_f1, best_w
