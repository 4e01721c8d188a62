from dataclasses import replace

import numpy as np
import pytest

from skyglow.errors import ParameterError, SchemaError
from skyglow.learners import (
    LearnerParams,
    fit_forest,
    fit_gbdt,
    predict_proba_forest,
    predict_proba_gbdt,
)
from skyglow.learners.binning import BinnedMatrix, bin_matrix, compute_bin_edges
from skyglow.learners.gbdt import (
    log_loss,
    softmax,
    softmax_gradient_hessian,
)

from oracles import (
    every_node_tree,
    exact_greedy_gini,
    exact_greedy_split,
    full_array_best_split,
    gini_split_oracle,
    level_wise_leaf_nodes,
)


# --- binning ---

def test_few_distinct_values_bin_losslessly():
    col = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
    edges = compute_bin_edges(col, max_bins=256)
    assert edges.tolist() == [1.0, 2.0]  # upper edges below the max value
    binned = bin_matrix(col.reshape(-1, 1), 256)
    assert binned.codes[:, 0].tolist() == [2, 0, 2, 1, 0]


def test_value_equal_to_edge_goes_to_lower_bin():
    col = np.array([1.0, 2.0, 3.0])
    edges = compute_bin_edges(col, 256)
    binned = bin_matrix(col.reshape(-1, 1), 256)
    # 1.0 == edges[0] -> bin 0; 2.0 == edges[1] -> bin 1
    assert binned.codes[:, 0].tolist() == [0, 1, 2]
    assert edges.tolist() == [1.0, 2.0]


def test_wide_column_respects_max_bins():
    rng = np.random.default_rng(3)
    col = rng.normal(size=5000)
    binned = bin_matrix(col.reshape(-1, 1), 64)
    assert binned.n_bins[0] <= 64
    assert binned.codes.max() < binned.n_bins[0]


def test_bin_matrix_rejects_non_finite():
    with pytest.raises(ParameterError):
        bin_matrix(np.array([[1.0], [np.nan]]), 8)
    with pytest.raises(ParameterError):
        bin_matrix(np.array([1.0, 2.0]), 8)  # 1-D


def test_histogram_accumulates_subset_weights():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [0.0, 6.0], [1.0, 6.0]])
    binned = bin_matrix(X, 8)
    w = np.array([1.0, 10.0, 100.0, 1000.0])
    rows = np.array([0, 2, 3])
    hist = binned.histogram(rows, w)
    left = slice(int(binned.offsets[0]), int(binned.offsets[0] + binned.n_bins[0]))
    # feature 0: value 0 rows {0,2} weight 101; value 1 rows {3} weight 1000
    assert hist[left].tolist() == [101.0, 1000.0]
    counts = binned.histogram(rows)
    assert counts[left].tolist() == [2.0, 1.0]


def test_full_row_histogram_equals_a_fresh_bincount():
    rng = np.random.default_rng(61)
    n = 300
    X = np.hstack([rng.normal(size=(n, 3)),
                   rng.integers(0, 4, size=(n, 2)).astype(float)])
    binned = bin_matrix(X, 32)
    w = rng.normal(size=n)
    every = np.arange(n)

    def fresh(rows, weights=None):
        flat = (binned.codes[rows] + binned.offsets[None, :]).ravel()
        if weights is None:
            return np.bincount(flat, minlength=binned.total_bins).astype(float)
        return np.bincount(flat, weights=np.repeat(weights[rows], binned.n_features),
                           minlength=binned.total_bins)

    counts = binned.histogram(every)
    assert counts.dtype == float and np.array_equal(counts, fresh(every))
    assert np.array_equal(binned.histogram(every, w), fresh(every, w))
    # full-length row sets other than every row in order
    for rows in (np.sort(rng.integers(0, n, size=n)), rng.permutation(n)):
        assert np.array_equal(binned.histogram(rows), fresh(rows))
        assert np.array_equal(binned.histogram(rows, w), fresh(rows, w))
    # the caller owns the returned array
    counts[:] = -1.0
    assert np.array_equal(binned.histogram(every), fresh(every))
    assert np.array_equal(binned.counts, fresh(every))


# --- gbdt internals ---

def test_softmax_rows_sum_to_one_and_shift_invariant():
    scores = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    p = softmax(scores)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(softmax(scores + 100.0), p)


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    scores = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    g, h = softmax_gradient_hessian(scores, y)
    eps = 1e-6
    for i in range(6):
        for c in range(4):
            up = scores.copy(); up[i, c] += eps
            dn = scores.copy(); dn[i, c] -= eps
            num = (log_loss(softmax(up), y) * 6 - log_loss(softmax(dn), y) * 6) / (2 * eps)
            assert abs(g[i, c] - num) < 1e-6
    # hessian is p(1-p): positive and at most 1/4
    assert (h > 0).all() and (h <= 0.25 + 1e-12).all()


def test_gbdt_first_split_matches_exact_greedy():
    from skyglow.learners.gbdt import _best_split, _splittable_mask
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(20, 80))
        X = rng.integers(0, 12, size=(n, 4)).astype(float)  # few distinct values
        g = rng.normal(size=n)
        h = rng.uniform(0.1, 1.0, size=n)
        params = LearnerParams(min_samples_leaf=3, l2_regularization=1.0)
        binned = bin_matrix(X, 256)
        rows = np.arange(n)
        hists = (binned.histogram(rows, g), binned.histogram(rows, h),
                 binned.histogram(rows))
        totals = (float(g.sum()), float(h.sum()), float(n))
        found = _best_split(binned, hists, totals, _splittable_mask(binned),
                            params)
        expect = exact_greedy_split(X, g, h, 1.0, 3)
        if expect is None:
            assert found is None
        else:
            assert found is not None
            gain, j, t_bin = found[0], found[1], found[2]
            assert abs(gain - expect[0]) < 1e-9
            assert j == expect[1]
            # the chosen bin must induce the same partition
            assert np.array_equal(binned.codes[:, j] <= t_bin,
                                  X[:, expect[1]] <= expect[2])


def test_best_split_matches_full_array_search():
    """Searching only the feasible positions picks the same split, with the
    same gain and left totals bit for bit, as the full-array search: on
    direct and subtracted histograms, with empty bins, with sibling
    histograms whose empty bins hold a rounding residue, and with ties
    between duplicated columns (whose running sums are exact only when
    every partial sum is, hence small integer gradients and dyadic
    hessians there)."""
    from skyglow.learners.gbdt import _best_split, _splittable_mask
    rng = np.random.default_rng(67)
    residues = ties = empty = 0
    for case in range(60):
        n = int(rng.integers(30, 250))
        p = int(rng.integers(1, 4))
        if case % 2:
            half = rng.integers(0, int(rng.integers(2, 9)), size=(n, p)).astype(float)
            X = np.hstack([half, half])  # each split has a tied twin
            g = rng.integers(-3, 4, size=n).astype(float)
            h = rng.choice([0.125, 0.25], size=n)
        else:
            X = rng.normal(size=(n, p))
            g = rng.normal(size=n)
            h = rng.uniform(0.01, 0.25, size=n)
        params = LearnerParams(min_samples_leaf=int(rng.integers(1, 8)),
                               l2_regularization=float(rng.uniform(0.1, 2.0)))
        binned = bin_matrix(X, int(rng.choice([8, 64, 256])))
        splittable = _splittable_mask(binned)

        def hists(rows):
            return np.stack([binned.histogram(rows, g), binned.histogram(rows, h),
                             binned.histogram(rows)])

        # two levels of parent-minus-child subtraction, as in a tree
        root = np.arange(n)
        a = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        b = np.setdiff1d(root, a)
        b_hists = hists(root) - hists(a)
        b1 = np.sort(rng.choice(b, size=int(rng.integers(0, len(b) + 1)),
                                replace=False))
        b2 = np.setdiff1d(b, b1)
        b2_hists = b_hists - hists(b1)
        for rows, node_hists in ((root, hists(root)), (a, hists(a)), (b, b_hists),
                                 (b1, hists(b1)), (b2, b2_hists)):
            totals = (float(g[rows].sum()), float(h[rows].sum()), float(len(rows)))
            got = _best_split(binned, node_hists, totals, splittable, params)
            want = full_array_best_split(binned, tuple(node_hists), totals,
                                         splittable, params)
            assert got == want, case
            empty += (node_hists[2] == 0).any()
            if case % 2 and got is not None:
                assert got[1] < p  # the lower of two tied features
                ties += 1
        residues += ((b2_hists[2] == 0) & (b2_hists[0] != 0)).any()
    assert residues >= 5 and ties >= 20 and empty >= 50


def test_partition_traversal_matches_level_wise_oracle():
    from skyglow.learners.gbdt import leaf_nodes
    rng = np.random.default_rng(71)
    n = 200
    X = np.hstack([rng.normal(size=(n, 3)),
                   rng.integers(0, 5, size=(n, 2)).astype(float)])
    y = rng.integers(0, 4, size=n)
    gbdt = fit_gbdt(X, y, LearnerParams(n_rounds=4, min_samples_leaf=3,
                                        max_leaves=12), n_classes=6)
    forest = fit_forest(X, y, LearnerParams(n_trees=5, min_samples_leaf=2))
    trees = [tree for round_trees in gbdt.trees for tree in round_trees]
    trees += list(forest.trees)
    assert any(len(tree.feature) == 1 for tree in trees)  # classes 4 and 5
    assert max(len(tree.feature) for tree in trees) > 15

    # a matrix whose values sit on the trees' thresholds
    on_threshold = X[rng.permutation(n)]
    for j in range(X.shape[1]):
        cuts = np.concatenate([tree.threshold[tree.feature == j] for tree in trees])
        if cuts.size:
            on_threshold[:, j] = rng.choice(cuts, size=n)
    hits = sum(int((on_threshold[:, tree.feature[0]] == tree.threshold[0]).sum())
               for tree in trees if tree.feature[0] >= 0)
    assert hits > 100

    for tree in trees:
        for M in (X, on_threshold, X[:0], rng.normal(size=(30, 5)) * 3):
            got = leaf_nodes(tree, M)
            want = level_wise_leaf_nodes(tree, M)
            assert got.dtype == np.int32 and np.array_equal(got, want)
    assert predict_proba_gbdt(gbdt, X[:0]).shape == (0, 6)
    assert predict_proba_forest(forest, X[:0]).shape == (0, 4)


def test_gbdt_train_loss_nonincreasing():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(150, 5))
    y = (X[:, 0] + 0.2 * rng.normal(size=150) > 0).astype(int)
    model = fit_gbdt(X, y, LearnerParams(n_rounds=25, learning_rate=0.1,
                                         min_samples_leaf=5))
    losses = model.train_losses
    assert len(losses) == 25
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_gbdt_zero_rounds_predicts_priors():
    y = np.array([0, 0, 0, 1, 2, 2])
    X = np.random.default_rng(0).normal(size=(6, 3))
    model = fit_gbdt(X, y, LearnerParams(n_rounds=0))
    probs = predict_proba_gbdt(model, X)
    priors = np.array([3, 1, 2]) / 6
    assert np.allclose(probs, priors[None, :], atol=1e-12)


def test_gbdt_learns_xor():
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.tile(base, (10, 1))
    y = np.tile(np.array([0, 1, 1, 0]), 10)
    model = fit_gbdt(X, y, LearnerParams(n_rounds=50, learning_rate=0.5,
                                         min_samples_leaf=1, max_leaves=4))
    pred = predict_proba_gbdt(model, X).argmax(axis=1)
    assert (pred == y).all()


def test_gbdt_single_class_prior_only():
    X = np.zeros((5, 2))
    y = np.ones(5, dtype=int)
    model = fit_gbdt(X, y, n_classes=3)
    assert model.trees == ()
    assert any("single-class" in d for d in model.diagnostics)
    probs = predict_proba_gbdt(model, X)
    assert probs[:, 1].min() > 0.99


def test_gbdt_zero_features_rejected_only_when_boosting():
    X = np.zeros((10, 0))
    y = np.arange(10) % 2
    with pytest.raises(ParameterError, match="zero features"):
        fit_gbdt(X, y, LearnerParams(n_rounds=1))
    with pytest.raises(ParameterError, match="zero features"):
        fit_forest(X, y, LearnerParams(n_trees=1))
    # Prior-only models stay legal: no rounds, or a single-class target.
    assert fit_gbdt(X, y, LearnerParams(n_rounds=0)).trees == ()
    assert fit_gbdt(X, np.ones(10, dtype=int), n_classes=2).trees == ()


def test_gbdt_early_stopping_truncates_to_best_round():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] > 0).astype(int)
    # validation labels are pure noise, so validation loss soon degrades
    Xv = rng.normal(size=(60, 4))
    yv = rng.integers(0, 2, size=60)
    model = fit_gbdt(X, y, LearnerParams(n_rounds=100, learning_rate=0.3,
                                         min_samples_leaf=5,
                                         early_stopping_patience=5),
                     validation=(Xv, yv))
    assert len(model.trees) < 100
    assert len(model.validation_losses) == len(model.trees)
    best = int(np.argmin(model.validation_losses))
    assert best == len(model.trees) - 1
    assert any("early stop" in d for d in model.diagnostics)


def _rounds_kept(losses, patience):
    """The rounds early stopping keeps on the validation losses `losses`:
    all of them, unless some round comes `patience` rounds after the first
    minimum of the losses so far; then those up to that minimum."""
    for round_no in range(len(losses)):
        best = int(np.argmin(losses[:round_no + 1]))
        if round_no - best >= patience:
            return best + 1
    return len(losses)


@pytest.mark.parametrize("seed", range(6))
def test_gbdt_early_stopping_keeps_the_rounds_a_plain_loop_keeps(seed):
    # the validation labels follow the features, so the best round comes
    # after round 0; with pure-noise labels it is round 0 for any rule
    rng = np.random.default_rng(seed)

    def draw(n):
        X = rng.normal(size=(n, 3))
        return X, (X[:, 0] + 0.8 * rng.normal(size=n) > 0).astype(int)

    X, y = draw(120)
    validation = draw(80)
    params = LearnerParams(n_rounds=30, learning_rate=0.3, min_samples_leaf=5,
                           max_leaves=4, early_stopping_patience=30)
    losses = fit_gbdt(X, y, params, validation=validation).validation_losses
    assert len(losses) == 30  # a patience of n_rounds never stops
    for patience in (2, 4, 6):
        model = fit_gbdt(X, y, replace(params, early_stopping_patience=patience),
                         validation=validation)
        kept = _rounds_kept(losses, patience)
        assert len(model.trees) == kept, patience
        assert model.validation_losses == losses[:kept]


def _assert_same_trees(got, want):
    assert len(got) == len(want)
    for got_round, want_round in zip(got, want):
        assert len(got_round) == len(want_round)
        for a, b in zip(got_round, want_round):
            for name in ("feature", "threshold", "left", "right", "value"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("absent_classes", [False, True])
def test_gbdt_fewer_rounds_fit_the_first_rounds_bit_for_bit(absent_classes):
    """An r-round fit is the first r rounds of a longer fit on the same
    rows, bit for bit: nothing in a round depends on n_rounds. `train`
    relies on it when it refits the rounds `cv` kept. Early stopping only
    truncates: its kept rounds are the fit of that many rounds without
    validation rows."""
    rng = np.random.default_rng(53)
    X = rng.normal(size=(150, 4))
    y = np.where(X[:, 0] > 0.3, 2, np.where(X[:, 1] > 0, 0, 1))
    y = np.where(rng.random(150) < 0.15, rng.integers(0, 3, size=150), y)
    Xv = rng.normal(size=(60, 4))
    yv = rng.integers(0, 3, size=60)  # noise, so validation loss soon degrades
    n_classes = None
    if absent_classes:  # classes 0, 1, 4 and 6 have no rows
        y, yv, n_classes = np.array([2, 3, 5])[y], np.array([2, 3, 5])[yv], 7
    params = LearnerParams(n_rounds=12, learning_rate=0.3, min_samples_leaf=5,
                           max_leaves=8, early_stopping_patience=2)
    full = fit_gbdt(X, y, params, n_classes=n_classes)
    assert len(full.trees) == 12
    for r in (0, 1, 5, 12):
        short = fit_gbdt(X, y, replace(params, n_rounds=r), n_classes=n_classes)
        assert np.array_equal(short.init_scores, full.init_scores)
        _assert_same_trees(short.trees, full.trees[:r])
        assert short.train_losses == full.train_losses[:r]

    stopped = fit_gbdt(X, y, params, validation=(Xv, yv), n_classes=n_classes)
    kept = len(stopped.trees)
    assert 0 < kept < 12
    refit = fit_gbdt(X, y, replace(params, n_rounds=kept), n_classes=n_classes)
    _assert_same_trees(refit.trees, stopped.trees)
    assert refit.train_losses == stopped.train_losses


def test_gbdt_deterministic():
    rng = np.random.default_rng(27)
    X = rng.normal(size=(80, 6))
    y = rng.integers(0, 3, size=80)
    p = LearnerParams(n_rounds=8, learning_rate=0.2, min_samples_leaf=4)
    a = predict_proba_gbdt(fit_gbdt(X, y, p), X)
    b = predict_proba_gbdt(fit_gbdt(X, y, p), X)
    assert np.array_equal(a, b)


def test_gbdt_label_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        fit_gbdt(X, np.array([0, 1, 2, 3]), n_classes=3)  # label out of range
    with pytest.raises(ParameterError):
        fit_gbdt(X, np.array([0.5, 1, 1, 0]))  # non-integer labels
    with pytest.raises(ParameterError):
        fit_gbdt(X, np.array([0, 1]))  # length mismatch


def test_gbdt_stores_the_given_feature_names():
    X = np.random.default_rng(1).normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    model = fit_gbdt(X, y, LearnerParams(n_rounds=2, min_samples_leaf=2),
                     feature_names=("a", "b"))
    assert model.feature_names == ("a", "b")


def test_gbdt_matrix_width_must_match_the_feature_names():
    X = np.random.default_rng(1).normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    params = LearnerParams(n_rounds=2, min_samples_leaf=2)
    with pytest.raises(SchemaError, match="matrix has 2 columns, model expects 3"):
        fit_gbdt(X, y, params, feature_names=("a", "b", "c"))
    model = fit_gbdt(X, y, params, feature_names=("a", "b"))
    with pytest.raises(SchemaError, match="matrix has 1 columns, model expects 2"):
        predict_proba_gbdt(model, X[:, :1])


def test_gbdt_min_samples_leaf_respected():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 2, size=60)
    model = fit_gbdt(X, y, LearnerParams(n_rounds=3, min_samples_leaf=10))
    for round_trees in model.trees:
        for tree in round_trees:
            leaves = tree.feature < 0
            if leaves.sum() <= 1:
                continue
            # count training rows reaching each leaf
            reached = np.zeros(len(tree.value), dtype=int)
            for i in range(len(X)):
                node = 0
                while tree.feature[node] >= 0:
                    if X[i, tree.feature[node]] <= tree.threshold[node]:
                        node = tree.left[node]
                    else:
                        node = tree.right[node]
                reached[node] += 1
            assert reached[leaves].min() >= 10


def _node_rows(tree, X):
    """The rows of X that reach each node of `tree`; a child's index is
    above its parent's."""
    reach = {0: np.arange(len(X))}
    for node in np.flatnonzero(tree.feature >= 0):
        rows = reach[node]
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        reach[tree.left[node]] = rows[go_left]
        reach[tree.right[node]] = rows[~go_left]
    return reach


def test_gbdt_tree_matches_every_node_oracle(monkeypatch):
    """Skipping the histograms and split search of nodes that cannot split
    leaves every tree array unchanged, including trees stopped by the
    leaf cap, nodes with fewer than 2 * min_samples_leaf rows and nodes
    whose rows share one gradient and hessian."""
    from skyglow.learners import gbdt
    from skyglow.learners.gbdt import _fit_tree, _splittable_mask, leaf_nodes

    def assert_matches_oracle(tree, binned, g, h, params, case):
        expect = every_node_tree(binned, g, h, params)
        for name, want in zip(("feature", "threshold", "left", "right", "value"),
                              expect):
            got = getattr(tree, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (case, name)

    rng = np.random.default_rng(43)
    capped = small_leaves = 0
    for case in range(80):
        n = int(rng.integers(5, 300))
        p = int(rng.integers(1, 6))
        if case % 2:
            X = rng.integers(0, int(rng.integers(2, 15)), size=(n, p)).astype(float)
        else:
            X = rng.normal(size=(n, p))
        g = rng.normal(size=n)
        h = rng.uniform(0.01, 0.25, size=n)
        params = LearnerParams(min_samples_leaf=int(rng.integers(1, 31)),
                               max_leaves=int(rng.integers(2, 32)),
                               learning_rate=0.3,
                               l2_regularization=float(rng.uniform(0.1, 2.0)))
        binned = bin_matrix(X, int(rng.choice([8, 64, 256])))
        tree = _fit_tree(binned, g, h, params, _splittable_mask(binned))
        assert_matches_oracle(tree, binned, g, h, params, case)
        capped += (tree.feature < 0).sum() == params.max_leaves
        leaf_rows = np.bincount(leaf_nodes(tree, X), minlength=len(tree.feature))
        small_leaves += (leaf_rows[tree.feature < 0]
                         < 2 * params.min_samples_leaf).any()
    assert capped >= 10 and small_leaves >= 10

    # (g, h) constant over regions of X, so that nodes whose rows share one
    # pair occur: with g != 0 the rounding bound lets them stay leaves
    # unsearched, with g == 0 (every gain >= 0 up to rounding residues) or a
    # tiny lambda and h > 0 (no margin) they are searched
    verdicts = []
    guard = gbdt._every_gain_negative

    def counted(binned, hists, totals, n, value, weight, params):
        verdict = guard(binned, hists, totals, n, value, weight, params)
        verdicts.append((value, weight, params.l2_regularization, verdict))
        return verdict

    monkeypatch.setattr(gbdt, "_every_gain_negative", counted)
    rng = np.random.default_rng(47)
    zero_splits = shared_splits = 0
    for case in range(90):
        n = int(rng.integers(40, 400))
        p = int(rng.integers(1, 5))
        X = rng.integers(0, int(rng.integers(2, 12)), size=(n, p)).astype(float)
        region = sum((X[:, j % p] > rng.integers(0, 4)) * 2 ** j for j in range(3))
        g_levels = rng.choice([-0.75, -0.1, 0.0, 0.05, 0.3], size=8)
        h_levels = rng.choice([0.0, 0.02, 0.1875], size=8)
        g, h = g_levels[region], h_levels[region]
        lam = 1e-18 if case % 3 == 2 else float(rng.uniform(0.1, 2.0))
        params = LearnerParams(min_samples_leaf=int(rng.integers(1, 8)),
                               max_leaves=int(rng.integers(4, 32)),
                               learning_rate=0.3, l2_regularization=lam)
        binned = bin_matrix(X, 256)
        tree = _fit_tree(binned, g, h, params, _splittable_mask(binned))
        assert_matches_oracle(tree, binned, g, h, params, ("regions", case))
        for node, rows in _node_rows(tree, X).items():
            if tree.feature[node] >= 0 and (g[rows] == g[rows[0]]).all():
                if g[rows[0]] == 0.0:
                    zero_splits += 1
                else:
                    shared_splits += (h[rows] == h[rows[0]]).all()
    shortcut = sum(verdict for *_, verdict in verdicts)
    no_margin = sum(not verdict for value, weight, lam, verdict in verdicts
                    if value != 0.0 and weight > 0.0 and lam < 1e-15)
    assert shortcut >= 50 and no_margin >= 50
    assert not any(verdict for value, weight, lam, verdict in verdicts
                   if value == 0.0 or (lam < 1e-15 and weight > 0.0))
    # searched nodes that split: all-zero gradients, and shared nonzero ones
    # at the tiny lambda, where rounding decides the sign of every gain
    assert zero_splits >= 5 and shared_splits >= 5


def test_gbdt_absent_classes_get_zero_trees_and_floor_scores():
    from skyglow.learners.gbdt import decision_scores_gbdt
    from skyglow.serialize import learner_from_obj, learner_to_obj
    import json
    rng = np.random.default_rng(47)
    X = rng.normal(size=(120, 3))
    y = np.where(X[:, 0] > 0.3, 5, np.where(X[:, 1] > 0, 2, 3))
    Xv = rng.normal(size=(40, 3))
    yv = np.where(Xv[:, 0] > 0.3, 5, np.where(Xv[:, 1] > 0, 2, 3))
    absent = [0, 1, 4, 6]
    model = fit_gbdt(X, y, LearnerParams(n_rounds=6, min_samples_leaf=5),
                     validation=(Xv, yv), n_classes=7)
    assert len(model.trees) >= 1
    for round_trees in model.trees:
        for c in absent:
            tree = round_trees[c]
            assert tree.feature.tolist() == [-1] and tree.value.tolist() == [0.0]
        assert all((round_trees[c].feature < 0).sum() > 1 for c in (2, 3, 5))
    scores = decision_scores_gbdt(model, X)
    assert (scores[:, absent] == np.log(1e-12)).all()
    probs = predict_proba_gbdt(model, X)
    assert (probs.argmax(axis=1) == y).mean() > 0.9

    obj = learner_to_obj(model)
    back = learner_from_obj(json.loads(json.dumps(obj)))
    assert learner_to_obj(back) == obj
    assert np.array_equal(predict_proba_gbdt(back, X), probs)


# --- forest ---

def test_forest_probabilities_shape_and_sum():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(90, 4))
    y = rng.integers(0, 3, size=90)
    model = fit_forest(X, y, LearnerParams(n_trees=12, min_samples_leaf=2))
    probs = predict_proba_forest(model, X)
    assert probs.shape == (90, 3)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_forest_learns_separable_data():
    rng = np.random.default_rng(33)
    X = np.vstack([rng.normal(-3, 0.5, size=(60, 2)),
                   rng.normal(3, 0.5, size=(60, 2))])
    y = np.array([0] * 60 + [1] * 60)
    model = fit_forest(X, y, LearnerParams(n_trees=20, min_samples_leaf=2))
    pred = predict_proba_forest(model, X).argmax(axis=1)
    assert (pred == y).mean() > 0.97


def test_forest_gini_split_matches_oracle():
    from skyglow.learners.forest import _gini_split
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(15, 60))
        X = rng.integers(0, 8, size=(n, 3)).astype(float)
        y = rng.integers(0, 3, size=n)
        binned = bin_matrix(X, 256)
        rows = np.arange(n)
        counts = np.bincount(y, minlength=3)
        found = _gini_split(binned, rows, y, counts, np.arange(3), min_leaf=2)
        expect = exact_greedy_gini(X, y, 3, 2)
        if expect is None:
            assert found is None
        else:
            assert found is not None
            j, t_bin = found
            assert j == expect[1]
            assert np.array_equal(binned.codes[:, j] <= t_bin,
                                  X[:, expect[1]] <= expect[2])

    # small bootstrap nodes of a wide binning leave most bins empty, and
    # duplicated columns tie: the same (feature, bin) as the oracle's
    # search over every bin
    empty_share = []
    ties = 0
    for _ in range(80):
        n = 400
        base = rng.normal(size=(n, 2))
        X = np.hstack([base, base, rng.integers(0, 3, size=(n, 1)).astype(float)])
        y = rng.integers(0, 3, size=n)
        binned = bin_matrix(X, 256)
        rows = np.sort(rng.integers(0, n, size=int(rng.integers(4, 60))))
        counts = np.bincount(y[rows], minlength=3)
        feats = np.sort(rng.choice(5, size=int(rng.integers(1, 6)), replace=False))
        min_leaf = int(rng.integers(1, 4))
        found = _gini_split(binned, rows, y, counts, feats, min_leaf)
        assert found == gini_split_oracle(binned, rows, y, counts, feats, min_leaf)
        occupied = np.unique(binned.positions[rows][:, feats])
        empty_share.append(1 - occupied.size / binned.n_bins[feats].sum())
        if found is not None and found[0] < 4 and found[0] ^ 2 in feats:
            assert found[0] < 2  # columns 0, 1 tie with their twins 2, 3
            ties += 1
    assert np.median(empty_share) > 0.8 and ties >= 5


def test_forest_trees_match_oracle_gini_split_seed_for_seed(monkeypatch):
    import skyglow.learners.forest as forest
    rng = np.random.default_rng(53)
    X = np.hstack([rng.normal(size=(150, 3)),
                   rng.integers(0, 5, size=(150, 2)).astype(float)])
    y = rng.integers(0, 4, size=150)
    for seed in (1, 2, 3):
        params = LearnerParams(n_trees=6, min_samples_leaf=2, seed=seed)
        model = fit_forest(X, y, params, n_classes=5)
        with monkeypatch.context() as patch:
            patch.setattr(forest, "_gini_split", gini_split_oracle)
            expect = fit_forest(X, y, params, n_classes=5)
        for got, want in zip(model.trees, expect.trees):
            for name in ("feature", "threshold", "left", "right", "distribution"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert sum(len(tree.feature) for tree in model.trees) > 6 * 9


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(70, 5))
    y = rng.integers(0, 2, size=70)
    a = predict_proba_forest(fit_forest(X, y, LearnerParams(n_trees=8, seed=5)), X)
    b = predict_proba_forest(fit_forest(X, y, LearnerParams(n_trees=8, seed=5)), X)
    c = predict_proba_forest(fit_forest(X, y, LearnerParams(n_trees=8, seed=6)), X)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forest_single_row_and_pure_nodes():
    model = fit_forest(np.array([[1.0, 2.0]]), np.array([1]), n_classes=3,
                       params=LearnerParams(n_trees=3))
    probs = predict_proba_forest(model, np.array([[9.0, 9.0]]))
    assert probs.tolist() == [[0.0, 1.0, 0.0]]


def test_params_validation():
    with pytest.raises(ParameterError):
        LearnerParams(n_rounds=-1)
    with pytest.raises(ParameterError):
        LearnerParams(learning_rate=0.0)
    with pytest.raises(ParameterError):
        LearnerParams(learning_rate=1.5)
    with pytest.raises(ParameterError):
        LearnerParams(max_bins=512)
    with pytest.raises(ParameterError):
        LearnerParams(l2_regularization=0.0)
    LearnerParams(n_rounds=0)  # prior-only model is legal
