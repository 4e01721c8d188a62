import numpy as np
import pytest

from skyglow.errors import ParameterError
from skyglow.features import knn
from skyglow.features.knn import _exact_knn
from skyglow.features.neighbors import cross_neighbor_means, neighbor_mean_features
from skyglow.features.pipeline import NeighborIndex

from oracles import brute_knn, neighbor_mean_oracle


def make_index(points, fold_labels):
    return NeighborIndex(np.asarray(points, dtype=float), np.arange(len(points)),
                         np.asarray(fold_labels))


def nearest_others(points, row, k, banned=()):
    """The k nearest neighbors of `row` among the other rows outside
    `banned`: `_exact_knn` over a reference without them, mapped back to
    rows."""
    keep = np.setdiff1d(np.arange(len(points)), [row, *banned])
    return keep[_exact_knn(points[keep], points[row:row + 1], k)[0]].tolist()


def test_query_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(5, 120))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        points = rng.normal(size=(n, d))
        row = int(rng.integers(n))
        assert nearest_others(points, row, k) == brute_knn(points, row, k)


def test_query_tie_break_prefers_smaller_row():
    # rows 1 and 3 are identical; both at distance 1 from row 0
    points = np.array([[0.0], [1.0], [5.0], [1.0]])
    assert nearest_others(points, 0, 2) == [1, 3]
    assert _exact_knn(points, points[:1], 3).tolist() == [[0, 1, 3]]


def test_query_excludes_self_and_banned():
    points = np.array([[0.0], [0.1], [0.2], [0.3]])
    assert 0 not in nearest_others(points, 0, 3)
    # k beyond the reference: every row left in it, nearest first
    assert nearest_others(points, 0, 3, banned=[1]) == [2, 3]
    assert _exact_knn(points, points[3:], 10).tolist() == [[3, 2, 1, 0]]


def scan_knn(ref, queries, k):
    """Every reference row ranked by (squared distance, position) for each
    query, through the loop oracle."""
    return [brute_knn(np.vstack([ref, q]), len(ref), k) for q in queries]


def adversarial_cases():
    """(name, reference, queries, k) cases for the distance bound."""
    rng = np.random.default_rng(23)
    for spread in (1e-3, 1e-8):
        far = 1e6 + spread * rng.normal(size=(60, 3))
        near = 1e6 + spread * rng.normal(size=(12, 3))
        yield f"offset 1e6, spread {spread}", far, np.vstack([far[::7], near]), 5
    # integer points repeated many times: ties straddle every k-th slot
    grid = rng.integers(0, 3, size=(45, 2)).astype(float)
    cells = np.array([[a, b] for a in range(-1, 4) for b in range(-1, 4)], float)
    for k in (1, 2, 4, 5, 9, 16):
        yield f"duplicates, k = {k}", grid, cells / 2, k
    points = rng.normal(size=(30, 4))
    points[10:20] = points[:10]
    yield "queries equal to reference rows", points, points[::3], 6
    yield "k = m", points, points[:5] + 0.1, 30
    yield "k > m", points, points[:5] - 0.1, 40
    yield "k = 1", points, rng.normal(size=(9, 4)), 1
    yield "one reference row", points[:1], rng.normal(size=(4, 4)), 3
    yield "zero queries", points, np.empty((0, 4)), 3


@pytest.mark.parametrize("block_cells", [
    pytest.param(knn._BLOCK_CELLS, id="default"), 7])
def test_exact_knn_matches_scan_on_adversarial_points(monkeypatch, block_cells):
    # 7 cells per block splits the queries into many blocks, and into
    # single-query blocks once the reference outgrows a block
    monkeypatch.setattr(knn, "_BLOCK_CELLS", block_cells)
    for name, ref, queries, k in adversarial_cases():
        found = _exact_knn(ref, queries, k)
        assert found.shape == (len(queries), min(k, len(ref))), name
        assert found.tolist() == scan_knn(ref, queries, k), name


def test_tied_distances_rank_by_position_within_a_block():
    # every query of one block has dozens of candidates, most of them at a
    # distance another candidate ties, so a sort that is not stable would
    # reorder the positions within a tie
    rng = np.random.default_rng(43)
    cells = np.array([[a, b] for a in range(7) for b in range(7)], float)
    ref = rng.permutation(np.repeat(cells, 3, axis=0))
    queries = rng.permutation(np.vstack([cells, cells + 0.5]))
    for k in (9, 24, 60):
        found = _exact_knn(ref, queries, k)
        assert found.tolist() == scan_knn(ref, queries, k), k


def float32_cases():
    """(name, reference, queries, k, screen dtype) cases for the float32
    screen's allowance and for the dtype choice."""
    rng = np.random.default_rng(31)
    # radii 1 + j * 1e-9 around the query: float32 cannot order them
    directions = rng.normal(size=(80, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    shell = directions * (1.0 + 1e-9 * rng.permutation(80))[:, None]
    for k in (1, 7, 40):
        yield (f"shell, k = {k}", shell, np.zeros((1, 3)) + 1e-12, k,
               np.float32)
    # a slab: every reference row within 1e-7 of the plane x = 0
    slab = np.column_stack([1e-7 * rng.normal(size=90),
                            rng.normal(size=(90, 2))])
    yield "slab", slab, slab[:9] + [0.5, 0.0, 0.0], 5, np.float32
    # far queries: |q|^2 about 1e8 times the neighbor distances
    cluster = rng.normal(size=(70, 3))
    far = 1e4 + 1e-3 * rng.normal(size=(6, 3))
    yield "far queries", cluster, far, 4, np.float32
    yield "near overflow", cluster * 1e19, cluster[:5] * 1e19 + 1e17, 3, np.float64
    yield "near underflow", cluster * 1e-25, cluster[:5] * 1e-25, 3, np.float64


@pytest.mark.parametrize("block_cells", [
    pytest.param(knn._BLOCK_CELLS, id="default"), 7])
def test_float32_screen_matches_scan(monkeypatch, block_cells):
    monkeypatch.setattr(knn, "_BLOCK_CELLS", block_cells)
    chosen = []

    def spy(scale):
        chosen.append(real_dtype(scale))
        return chosen[-1]

    real_dtype = knn._screen_dtype
    monkeypatch.setattr(knn, "_screen_dtype", spy)
    for name, ref, queries, k, dtype in float32_cases():
        chosen.clear()
        found = _exact_knn(ref, queries, k)
        assert chosen == [dtype], name
        assert found.tolist() == scan_knn(ref, queries, k), name


def shell_case(seed):
    """300 reference rows near (-1000, 0, 0, 0) and 200 on a unit shell
    around (1000, 0, 0, 0), each radius off 1 by 1e-5 to 1e-3, with 20
    queries within 1e-3 of the shell's centre: the centred squared norms
    are about 1.4e6, so float32 cannot rank the shell rows, and the
    screen's allowance alone keeps the true neighbors among them."""
    rng = np.random.default_rng(seed)
    cluster = [-1000.0, 0.0, 0.0, 0.0] + rng.normal(size=(300, 4))
    directions = rng.normal(size=(200, 4))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = 1.0 + rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-5, -3, 200)
    centre = np.array([1000.0, 0.0, 0.0, 0.0])
    ref = rng.permutation(np.vstack([cluster, centre + directions * radii[:, None]]))
    return ref, centre + 5e-4 * rng.uniform(-1, 1, size=(20, 4))


def test_float32_screen_needs_its_whole_allowance(monkeypatch):
    cases = [shell_case(seed) for seed in range(1, 4)]
    for ref, queries in cases:
        assert _exact_knn(ref, queries, 10).tolist() == scan_knn(ref, queries, 10)

    def misses(ref, queries):
        # a screen that drops a true neighbor misranks, or keeps fewer than
        # k candidates for a query and fails to fill its row
        try:
            return _exact_knn(ref, queries, 10).tolist() != scan_knn(ref, queries, 10)
        except IndexError:
            return True

    real = knn._rounding_allowance
    monkeypatch.setattr(knn, "_rounding_allowance",
                        lambda dim, dtype: real(dim, dtype) / 64)
    assert any(misses(ref, queries) for ref, queries in cases)


def test_threshold_cast_rounds_upward():
    rng = np.random.default_rng(37)
    values = np.concatenate([rng.normal(size=500) * 10.0 ** rng.integers(-30, 30, 500),
                             [0.0, 1.0, -1.0, 2.0 ** -20, 1.0 + 2.0 ** -30,
                              -(1.0 + 2.0 ** -30)]])
    up = knn._round_up(values, np.float32)
    assert up.dtype == np.float32
    assert (up.astype(float) >= values).all()
    # the next float32 below each result is below the value
    assert (np.nextafter(up, np.float32(-np.inf)).astype(float) < values).all()
    assert knn._round_up(values, np.float64).tolist() == values.tolist()


def test_exact_knn_rejects_non_finite_points():
    points = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]])
    with pytest.raises(ParameterError):
        _exact_knn(points, np.zeros((1, 2)), 2)
    with pytest.raises(ParameterError):
        _exact_knn(np.zeros((3, 2)), points[1:2] * np.inf, 2)


def test_query_k_validation():
    with pytest.raises(ParameterError):
        _exact_knn(np.zeros((3, 1)), np.zeros((1, 1)), 0)
    with pytest.raises(ParameterError):
        cross_neighbor_means(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 1)),
                             0, fallback=0.0)


def test_neighbor_means_match_oracle_out_of_fold():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(8, 60))
        points = rng.normal(size=(n, 2))
        values = rng.normal(size=n)
        folds = rng.integers(0, 3, size=n)
        k = int(rng.integers(1, 5))
        means, counts = neighbor_mean_features(
            make_index(points, folds), values, k)
        m0, c0 = neighbor_mean_oracle(points, values, k, fold_labels=folds)
        assert np.array_equal(counts, c0)
        real = counts > 0
        assert np.array_equal(means[real], m0[real])
        assert np.allclose(means[~real], m0[~real], atol=1e-12)


def test_out_of_fold_never_uses_own_fold():
    # fold 0 has wildly different targets; if any leaked, the mean would move
    points = np.array([[0.0], [0.01], [0.02], [10.0], [10.01], [10.02]])
    values = np.array([1000.0, 1000.0, 1000.0, 1.0, 2.0, 3.0])
    folds = np.array([0, 0, 0, 1, 1, 1])
    means, _ = neighbor_mean_features(make_index(points, folds), values, 2)
    assert means[0] == (1.0 + 2.0) / 2  # nearest two in the other fold


def test_perturbing_own_fold_leaves_feature_bit_identical():
    rng = np.random.default_rng(31)
    points = rng.normal(size=(50, 3))
    values = rng.normal(size=50)
    folds = rng.integers(0, 5, size=50)
    base, _ = neighbor_mean_features(make_index(points, folds), values, 4)
    poisoned = values.copy()
    poisoned[folds == 2] += 1e6
    after, _ = neighbor_mean_features(make_index(points, folds), poisoned, 4)
    rows = folds == 2
    assert np.array_equal(base[rows], after[rows])


def test_neighbor_pool_is_the_index_rows():
    # of rows 0-4 (row 4 without coordinates), rows 2-3 are held out: the
    # index holds training rows 0, 1 and 4, and rows 2-3 are applied
    points = np.array([[0.0], [0.1], [0.2], [0.3]])
    values = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    folds = np.array([0, 1, 0, 1, 0])
    train = np.array([True, True, False, False, True])
    index = NeighborIndex(points[:2], np.arange(2), folds[train])
    means, counts = neighbor_mean_features(index, values[train], 2)
    # each located training row sees only the training row of the other fold
    assert means[:2].tolist() == [20.0, 10.0]
    assert counts[:2].tolist() == [1, 1]
    # row 4 falls back to its fold's complement among the training rows:
    # row 1, not rows 1 and 3
    assert means[2] == 20.0 and counts[2] == 0
    # the held-out rows average the two located training rows, whatever
    # their folds
    means, counts = cross_neighbor_means(points[:2], values[:2], points[2:],
                                         2, fallback=-1.0)
    assert means.tolist() == [15.0, 15.0] and counts.tolist() == [2, 2]


def test_fallback_is_fold_complement_mean():
    # rows 3 and 4 have no coordinates, so each falls back to the mean of
    # every value outside its own fold, located or not
    points = np.array([[0.0], [0.001], [50.0]])
    values = np.array([5.0, 5.0, 7.0, 9.0, 1.0])
    folds = np.array([0, 0, 1, 1, 0])
    index = NeighborIndex(points, np.arange(3), folds)
    means, counts = neighbor_mean_features(index, values, 1)
    assert counts[3] == 0 and means[3] == (5.0 + 5.0 + 1.0) / 3
    assert counts[4] == 0 and means[4] == (7.0 + 9.0) / 2
    # row 0's nearest out-of-fold neighbor is row 2, and row 2's is row 0
    assert counts[0] == 1 and means[0] == 7.0
    assert counts[2] == 1 and means[2] == 5.0


def test_fallback_when_no_eligible_values():
    points = np.array([[0.0], [1.0], [2.0]])
    values = np.array([4.0, 6.0, 7.0])
    # row 0 is held out, so the index holds rows 1 and 2, both of fold 1
    means, counts = neighbor_mean_features(
        make_index(points[1:], np.array([1, 1])), values[1:], 2)
    # rows 1 and 2: no row lies outside their fold, so the pool and the
    # complement are empty -> count 0 and fallback 0.0
    assert counts.tolist() == [0, 0]
    assert means.tolist() == [0.0, 0.0]
    # row 0 averages both rows of fold 1
    means, counts = cross_neighbor_means(points[1:], values[1:], points[:1],
                                         2, fallback=0.0)
    assert counts[0] == 2 and means[0] == 6.5


def test_cross_neighbor_means_matches_loop():
    rng = np.random.default_rng(37)
    ref = rng.normal(size=(40, 2))
    vals = rng.normal(size=40)
    queries = rng.normal(size=(15, 2))
    means, counts = cross_neighbor_means(ref, vals, queries, 3, fallback=-1.5)
    assert counts.tolist() == [3] * len(queries)
    for i in range(len(queries)):
        d2 = ((ref - queries[i]) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")[:3]
        assert means[i] == np.mean(vals[order])


def test_cross_neighbor_means_no_self_exclusion():
    ref = np.array([[0.0], [1.0]])
    vals = np.array([3.0, 5.0])
    means, counts = cross_neighbor_means(ref, vals, ref, 1, fallback=0.0)
    # a query identical to a reference row uses that row (no identity notion)
    assert means.tolist() == [3.0, 5.0]
    assert counts.tolist() == [1.0, 1.0]


def test_tie_heavy_grid_matches_oracle():
    # a 3x3 integer grid: most points have exact duplicates and most
    # distances tie, so every rank is decided by the row tie-break
    rng = np.random.default_rng(41)
    for trial in range(72):
        n = int(rng.integers(2, 40))
        points = rng.integers(0, 3, size=(n, 2)).astype(float)
        values = rng.integers(0, 8, size=n).astype(float)
        folds = rng.integers(-1, 3, size=n)
        mask = rng.random(n) < 0.7
        k = trial % 12 + 1
        ref, ref_values = points[mask], values[mask]
        means, counts = neighbor_mean_features(make_index(ref, folds[mask]),
                                               ref_values, k)
        m0, c0 = neighbor_mean_oracle(ref, ref_values, k,
                                      fold_labels=folds[mask])
        # integer values: every sum is exact, so means compare bitwise
        assert np.array_equal(counts, c0)
        assert np.array_equal(means, m0)
        queries = rng.integers(0, 3, size=(8, 2)).astype(float)
        means, counts = cross_neighbor_means(ref, ref_values, queries, k,
                                             fallback=-1.0)
        for i, q in enumerate(queries):
            neigh = brute_knn(np.vstack([ref, q]), len(ref), k)
            vals = [ref_values[j] for j in neigh]
            assert counts[i] == len(vals)
            assert means[i] == (sum(vals) / len(vals) if vals else -1.0)


def test_empty_and_exhausted_pools():
    points = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    folds = np.array([0, 0, 1, 1, -1])
    index = make_index(points, folds)
    # one fold label: every row's reference is empty, so every row gets
    # the fallback and count 0
    means, counts = neighbor_mean_features(
        make_index(points, np.zeros(5, dtype=np.int64)), values, 3)
    assert counts.tolist() == [0] * 5 and means.tolist() == [0.0] * 5
    means, counts = cross_neighbor_means(np.empty((0, 1)), np.empty(0),
                                         points, 3, fallback=2.5)
    assert counts.tolist() == [0] * 5 and means.tolist() == [2.5] * 5
    # k beyond the pool: every row outside the fold is a neighbor
    means, counts = neighbor_mean_features(index, values, 10)
    assert counts.tolist() == [3, 3, 3, 3, 4]
    assert means.tolist() == [4.0, 4.0, 8.0 / 3, 8.0 / 3, 2.5]
    # fitted on fold 0 alone, whose complement is empty, fold 0 falls
    # back; the other rows are applied against fold 0's two rows
    means, counts = neighbor_mean_features(
        make_index(points[:2], folds[:2]), values[:2], 2)
    assert counts.tolist() == [0, 0] and means.tolist() == [0.0, 0.0]
    means, counts = cross_neighbor_means(points[:2], values[:2], points[2:],
                                         2, fallback=0.0)
    assert counts.tolist() == [2, 2, 2]
    assert means.tolist() == [1.5, 1.5, 1.5]
