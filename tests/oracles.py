"""Straight-line reference implementations the real code is checked against.

Everything here favors obviousness over speed: plain loops, dense algebra,
exhaustive search. If a test disagrees with the package, trust this file.
"""

from __future__ import annotations

import heapq
import math
from datetime import datetime, timedelta
from itertools import combinations

import numpy as np

from skyglow.dataset import (
    NUMERIC_FIELDS,
    OBSERVATION_COLUMNS,
    POPULATION_YEARS,
    RowDiagnostic,
    csv_reader,
    parse_timestamp,
)
from skyglow.errors import DuplicateKeyError, RowError, TimestampError
from skyglow.synth import (
    _CLASS_IDS,
    _CLOUDS_REST,
    _CONSTELLATIONS_REST,
    _COUNTRIES,
    _DAYPART_REST,
    _DAYPART_WINDOWS,
    _ELEV_CENTERS,
    _LAT_CENTERS,
    _LON_CENTERS,
    _PLACE_WORDS,
    _READING_CENTERS,
    _SKY_WORDS,
    _TYPES_REST,
    _missing_mask,
    _quota_labels,
    _spread_rest,
)

from helpers import Obs, make_table


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
                         fallback: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Loop version of the out-of-fold neighbor-mean feature."""
    n = len(points)
    means = np.zeros(n)
    counts = np.zeros(n)
    for i in range(n):
        banned = set()
        if fold_labels is not None:
            banned = {j for j in range(n) if fold_labels[j] == fold_labels[i]}
        neigh = brute_knn(points, i, k, banned)
        vals = [values[j] for j in neigh]
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
                pool = [values[j] for j in range(n) if j not in banned]
                means[i] = sum(pool) / len(pool) if pool else 0.0
            counts[i] = 0.0
    return means, counts


def dense_svd(matrix: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Full LAPACK decomposition truncated to `rank`: (singular_values,
    components) with components rows = right singular vectors."""
    _, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    return s[:rank], vt[:rank]


def csr_entries(indptr, indices, data):
    """The stored entries of a CSR triple as (row, column, value), in
    stored order."""
    return [(i, int(indices[jj]), float(data[jj]))
            for i in range(len(indptr) - 1)
            for jj in range(indptr[i], indptr[i + 1])]


def csr_products_oracle(indptr, indices, data, shape, x, y):
    """(A, A @ x, A.T @ y) for the CSR matrix A, each output cell
    accumulated from 0.0 over the stored entries in stored order."""
    n_rows, n_cols = shape
    dense = [[0.0] * n_cols for _ in range(n_rows)]
    ax = [[0.0] * x.shape[1] for _ in range(n_rows)]
    aty = [[0.0] * y.shape[1] for _ in range(n_cols)]
    for i, j, value in csr_entries(indptr, indices, data):
        dense[i][j] += value
        for t in range(x.shape[1]):
            ax[i][t] += value * float(x[j, t])
        for t in range(y.shape[1]):
            aty[j][t] += value * float(y[i, t])
    return (np.array(dense).reshape(shape),
            np.array(ax).reshape(n_rows, x.shape[1]),
            np.array(aty).reshape(n_cols, y.shape[1]))


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


def transform_tfidf_oracle(model, corpus):
    """One document at a time: count its vocabulary tokens, weigh each
    (term, count) pair in term order by count x IDF, and divide by the
    row's norm, math.sqrt of numpy's sum of the squared weights. Returns
    the CSR triple (indptr, indices, data) as arrays."""
    index = model.token_index()
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for doc in corpus:
        counts: dict[int, int] = {}
        for tok in doc:
            j = index.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        row = sorted(counts.items())
        weights = np.array([c * model.idf[j] for j, c in row])
        norm = math.sqrt(float((weights ** 2).sum())) if len(row) else 0.0
        if norm > 0.0:
            weights = weights / norm
        data.extend(weights.tolist())
        indices.extend(j for j, _ in row)
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=float))


def join_population_oracle(records, pop):
    """Record by record: the population of (country, year of time), or the
    median over all (country, year) pairs when either is missing or the
    pair is not in `pop`."""
    fallback = pop.median_population()
    joined = []
    for rec in records:
        value = None
        if rec.country is not None and rec.time is not None:
            value = pop.get(rec.country, rec.time.year)
        if value is None:
            joined.append(rec._replace(population=fallback))
        else:
            joined.append(rec._replace(population=float(value)))
    return joined


def parse_observations_oracle(source, strictness: str = "lenient"):
    """Row by row: each data row's cells checked in turn, the first failing
    check giving its error (raised in strict mode, a diagnostic in lenient
    mode); a repeated id is judged against the rows kept before it."""
    with csv_reader(source) as reader:
        header = next(reader)
        assert sorted(header) == sorted(OBSERVATION_COLUMNS)
        columns = {c: [] for c in OBSERVATION_COLUMNS}
        diagnostics = []
        seen_ids = set()
        for line_no, row in enumerate(reader, start=2):
            row_id = ""
            try:
                if len(row) != len(header):
                    raise RowError(f"line {line_no}: expected {len(header)} "
                                   f"cells, got {len(row)}")
                cells = dict(zip(header, row))
                row_id = cells["id"]
                if row_id == "":
                    raise RowError(f"line {line_no}: empty id")
                if row_id in seen_ids:
                    raise DuplicateKeyError(
                        f"duplicate id: {row_id!r} (line {line_no})")
                values = _parse_row_oracle(row_id, cells)
            except (RowError, DuplicateKeyError) as exc:
                if strictness == "strict":
                    raise
                diagnostics.append(RowDiagnostic(line_no, row_id, str(exc)))
                continue
            seen_ids.add(row_id)
            for column in OBSERVATION_COLUMNS:
                columns[column].append(values[column])
    return make_table(map(Obs, *columns.values())), diagnostics


def _parse_row_oracle(row_id, cells):
    values = {}
    for field in NUMERIC_FIELDS:
        cell = cells[field]
        values[field] = None
        if cell != "":
            try:
                values[field] = float(cell)
            except ValueError:
                raise RowError(f"row {row_id!r}: {field} is not numeric: "
                               f"{cell!r}") from None
            if not math.isfinite(values[field]):
                raise RowError(f"row {row_id!r}: {field} is not finite: {cell!r}")
    values["time"] = None
    if cells["time"] != "":
        try:
            values["time"] = parse_timestamp(cells["time"])
        except TimestampError as exc:
            raise RowError(f"row {row_id!r}: {exc}") from None
    for column in OBSERVATION_COLUMNS:
        if column not in values:
            values[column] = cells[column] if cells[column] != "" else None
    lat, lon = values["latitude"], values["longitude"]
    if lat is not None and not -90.0 <= lat <= 90.0:
        raise RowError(f"row {row_id!r}: latitude out of range [-90, 90]: {lat}")
    if lon is not None and not -180.0 <= lon <= 180.0:
        raise RowError(f"row {row_id!r}: longitude out of range [-180, 180]: {lon}")
    return values


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


# The GBDT split search over every flattened position, invalid ones masked
# to -inf; same signature and result as gbdt._best_split.
full_array_best_split = _every_node_best_split


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


def level_wise_leaf_nodes(tree, X):
    """Leaf index of every row of X, advancing all rows one tree level per
    pass over the whole array."""
    nodes = np.zeros(len(X), dtype=np.int32)
    while True:
        feat = tree.feature[nodes]
        active = np.nonzero(feat >= 0)[0]
        if active.size == 0:
            return nodes
        at = nodes[active]
        go_left = X[active, feat[active]] <= tree.threshold[at]
        nodes[active] = np.where(go_left, tree.left[at], tree.right[at])


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


def row_by_row_observations(config):
    """The synthetic observation table drawn one row at a time, one scalar
    RNG call per value, built from one `Obs` per row: the
    generator `synth.generate_observations` replaced, kept verbatim."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    n = config.n_rows

    classes = _quota_labels(rng, n, [(c, 0.25) for c in _CLASS_IDS])
    lat = np.array([rng.normal(_LAT_CENTERS[c], 3.0) for c in classes])
    lon = np.array([rng.normal(_LON_CENTERS[c], 3.0) for c in classes])
    lat = np.clip(lat, -85.0, 85.0)
    lon = np.clip(lon, -175.0, 175.0)
    elevation = np.array([rng.normal(_ELEV_CENTERS[c], 40.0) for c in classes])
    reading = np.array([rng.normal(_READING_CENTERS[c], 0.3) for c in classes])
    magnitude = np.array([c + rng.uniform(-0.2, 0.2) for c in classes])

    dayparts = _quota_labels(rng, n, [("evening", config.share_evening)] + list(
        zip(_DAYPART_REST, _spread_rest(1.0 - config.share_evening,
                                        len(_DAYPART_REST)))))
    years = rng.integers(POPULATION_YEARS[0], POPULATION_YEARS[-1] + 1, size=n)
    day_of_year = rng.integers(1, 366, size=n)
    times = []
    for i in range(n):
        low, high = _DAYPART_WINDOWS[dayparts[i]]
        hour = int(rng.integers(low, high)) % 24
        minute = int(rng.integers(0, 60))
        second = int(rng.integers(0, 60))
        times.append(datetime(int(years[i]), 1, 1)
                     + timedelta(days=int(day_of_year[i]) - 1,
                                 hours=hour, minutes=minute, seconds=second))

    sensor_types = _quota_labels(rng, n, [("GAN", config.share_type_gan)] + list(
        zip(_TYPES_REST, _spread_rest(1.0 - config.share_type_gan,
                                      len(_TYPES_REST)))))
    clouds = _quota_labels(rng, n, [("clear", config.share_clouds_clear)] + list(
        zip(_CLOUDS_REST, _spread_rest(1.0 - config.share_clouds_clear,
                                       len(_CLOUDS_REST)))))

    # constellation shares apply to PRESENT rows, so draw the mask first
    constellation_missing = _missing_mask(rng, n, config.missing_constellation)
    n_present = int((~constellation_missing).sum())
    present_labels = _quota_labels(
        rng, n_present,
        [("Orion", config.share_constellation_orion)] + list(
            zip(_CONSTELLATIONS_REST,
                _spread_rest(1.0 - config.share_constellation_orion,
                             len(_CONSTELLATIONS_REST)))))
    constellation: list[str | None] = []
    feed = iter(present_labels)
    for missing in constellation_missing:
        constellation.append(None if missing else next(feed))

    reading_missing = _missing_mask(rng, n, config.missing_sensor_reading)
    comment_1_missing = _missing_mask(rng, n, config.missing_comment_1)
    comment_2_missing = _missing_mask(rng, n, config.missing_comment_2)
    target_missing = _missing_mask(rng, n, config.missing_target)
    countries = rng.choice(np.array(_COUNTRIES, dtype=object), size=n,
                           p=[0.30, 0.25, 0.15, 0.12, 0.10, 0.08])

    records = []
    for i in range(n):
        words = _SKY_WORDS[classes[i]]
        com1 = None
        if not comment_1_missing[i]:
            picked = rng.choice(len(words), size=int(rng.integers(3, 6)),
                                replace=False)
            com1 = " ".join(words[j] for j in picked)
        com2 = None
        if not comment_2_missing[i]:
            picked = rng.choice(len(_PLACE_WORDS), size=int(rng.integers(2, 4)),
                                replace=False)
            com2 = " ".join(_PLACE_WORDS[j] for j in picked)
        records.append(Obs(
            id=f"syn-{i + 1:06d}",
            time=times[i],
            time_zone=float(np.round(lon[i] / 15.0)),
            country=str(countries[i]),
            latitude=float(lat[i]),
            longitude=float(lon[i]),
            elevation_m=float(elevation[i]),
            sensor_type=str(sensor_types[i]),
            sensor_reading=None if reading_missing[i] else float(reading[i]),
            clouds=str(clouds[i]),
            constellation=constellation[i],
            comment_1=com1,
            comment_2=com2,
            limiting_magnitude=None if target_missing[i] else float(magnitude[i]),
        ))
    return make_table(records)
