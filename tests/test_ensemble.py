import numpy as np
import pytest

from skyglow.ensemble import (
    EnsembleWeights,
    _ascend,
    blend,
    mean_blend,
    optimize_weights,
    read_weights_csv,
)
from skyglow.errors import DimensionError, ParameterError
from skyglow.validation import micro_f1, predicted_classes

from oracles import grid_weight_search, micro_prf_oracle


def random_oof(rng, n, c, sharpness):
    """Probability matrix loosely concentrated on a hidden truth."""
    truth = rng.integers(0, c, size=n)
    logits = rng.normal(size=(n, c))
    logits[np.arange(n), truth] += sharpness
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return truth, e / e.sum(axis=1, keepdims=True)


def test_blend_is_weighted_sum():
    rng = np.random.default_rng(1)
    mats = [rng.dirichlet(np.ones(4), size=10) for _ in range(3)]
    w = np.array([0.5, 0.3, 0.2])
    out = blend(mats, w)
    manual = 0.5 * mats[0] + 0.3 * mats[1] + 0.2 * mats[2]
    assert np.allclose(out, manual, atol=1e-15)


def test_blend_weight_validation():
    mats = [np.full((4, 2), 0.5), np.full((4, 2), 0.5)]
    with pytest.raises(ParameterError):
        blend(mats, np.array([0.7, 0.4]))  # sums to 1.1
    with pytest.raises(ParameterError):
        blend(mats, np.array([1.2, -0.2]))  # negative
    with pytest.raises(DimensionError):
        blend(mats, np.array([1.0]))
    with pytest.raises(DimensionError):
        blend([np.zeros((3, 2)), np.zeros((4, 2))], np.array([0.5, 0.5]))


def test_corner_blend_is_exact():
    rng = np.random.default_rng(2)
    mats = [rng.dirichlet(np.ones(3), size=20) for _ in range(2)]
    assert np.array_equal(blend(mats, np.array([1.0, 0.0])), mats[0])
    assert np.array_equal(blend(mats, np.array([0.0, 1.0])), mats[1])


def test_mean_blend_equals_uniform_blend_bitwise():
    rng = np.random.default_rng(3)
    mats = [rng.dirichlet(np.ones(5), size=30) for _ in range(3)]
    uniform = np.full(3, 1.0 / 3.0)
    assert np.array_equal(mean_blend(mats), blend(mats, uniform))


def test_optimized_floors_hold_on_random_problems():
    rng = np.random.default_rng(4)
    for trial in range(25):
        n_models = int(rng.integers(2, 4))
        truth, _ = random_oof(rng, 60, 4, 1.0)
        mats = [random_oof(rng, 60, 4, float(rng.uniform(0.3, 2.0)))[1]
                for _ in range(n_models)]
        weights = optimize_weights(mats, truth, seed=trial)
        singles = [micro_f1(predicted_classes(m), truth) for m in mats]
        mean_f1 = micro_f1(predicted_classes(mean_blend(mats)), truth)
        assert weights.objective >= mean_f1
        assert weights.objective >= max(singles)
        # reported objective matches recomputing from the weights
        rescored = micro_f1(predicted_classes(blend(mats, weights.weights)),
                            truth)
        assert rescored == weights.objective


def test_optimizer_bracketed_by_fine_grid():
    # coordinate moves are multiples of the step sizes, so for two models
    # every reachable point lies on the 0.01 grid: the exhaustive grid
    # search is an upper bound, and the corner restarts a lower bound.
    rng = np.random.default_rng(5)
    for trial in range(5):
        truth, _ = random_oof(rng, 80, 3, 1.0)
        mats = [random_oof(rng, 80, 3, float(rng.uniform(0.4, 1.5)))[1]
                for _ in range(2)]
        weights = optimize_weights(mats, truth, seed=trial)
        grid_best, _ = grid_weight_search(mats, truth, step=0.01)
        assert weights.objective <= grid_best + 1e-12
        singles = [micro_f1(predicted_classes(m), truth) for m in mats]
        assert weights.objective >= max(singles)


def test_optimize_weights_deterministic():
    rng = np.random.default_rng(6)
    truth, _ = random_oof(rng, 50, 4, 1.0)
    mats = [random_oof(rng, 50, 4, 0.8)[1] for _ in range(3)]
    a = optimize_weights(mats, truth, seed=7)
    b = optimize_weights(mats, truth, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert a.objective == b.objective


def test_optimize_weights_identical_models_keep_uniform_start():
    rng = np.random.default_rng(8)
    truth, probs = random_oof(rng, 40, 3, 1.0)
    weights = optimize_weights([probs, probs.copy()], truth, seed=0)
    # any simplex point scores the same; earliest restart (uniform) wins
    assert np.allclose(weights.weights, [0.5, 0.5])


def test_optimize_weights_validation():
    probs = np.full((4, 2), 0.5)
    truth = np.array([0, 1, 0, 1])
    with pytest.raises(ParameterError):
        optimize_weights([], truth)
    with pytest.raises(ParameterError):
        optimize_weights([probs], truth, step_schedule=(0.0,))
    with pytest.raises(ParameterError):
        optimize_weights([probs], truth, model_ids=("a", "b"))


def test_weights_simplex_validation():
    with pytest.raises(ParameterError):
        EnsembleWeights(("a", "b"), np.array([0.8, 0.1]), 0.5)
    with pytest.raises(ParameterError):
        EnsembleWeights(("a",), np.array([-1.0]), 0.5)
    # NaN passes both `nan < 0` and `abs(nan - 1) > 1e-9` as False, so only
    # a finiteness check stops it; [1.5, -0.5] sums to 1
    mats = [np.full((3, 2), 0.5)] * 2
    for bad in ([np.nan, 1.0], [1.0, np.nan], [1.5, -0.5], [np.inf, -np.inf]):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            EnsembleWeights(("a", "b"), np.array(bad), 0.5)
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            blend(mats, np.array(bad))


def test_weights_csv_round_trip_exact(tmp_path):
    w = EnsembleWeights(("gbdt_full", "forest"),
                        np.array([1.0 / 3.0, 2.0 / 3.0]), 0.875)
    path = tmp_path / "weights.csv"
    w.write_csv(path)
    again = read_weights_csv(path)
    assert again.model_ids == w.model_ids
    assert np.array_equal(again.weights, w.weights)


def test_single_model_ensemble_is_identity():
    rng = np.random.default_rng(9)
    truth, probs = random_oof(rng, 30, 3, 1.2)
    weights = optimize_weights([probs], truth, model_ids=("only",), seed=0)
    assert weights.weights.tolist() == [1.0]
    assert weights.objective == micro_f1(predicted_classes(probs), truth)


def test_step_sizes_are_in_the_half_open_unit_interval():
    probs = np.full((4, 2), 0.5)
    truth = np.array([0, 1, 0, 1])
    weights = optimize_weights([probs, probs.copy()], truth, step_schedule=(1.0,))
    assert weights.weights.sum() == 1.0
    for step in (0.0, 1.0 + 1e-12):
        with pytest.raises(ParameterError, match="step sizes must be in"):
            optimize_weights([probs, probs.copy()], truth, step_schedule=(step,))


def test_weights_sum_to_one_within_1e_9():
    mats = [np.full((3, 2), 0.5)] * 2
    near = np.array([0.5, 0.5 + 5e-10])
    EnsembleWeights(("a", "b"), near, 0.5)
    assert blend(mats, near).shape == (3, 2)
    far = np.array([0.5, 0.5 + 2e-9])
    with pytest.raises(ParameterError, match="must sum to 1"):
        EnsembleWeights(("a", "b"), far, 0.5)
    with pytest.raises(ParameterError, match="must sum to 1"):
        blend(mats, far)


def test_ascent_stays_put_when_every_move_ties():
    # identical models score the same at every simplex point, so no move
    # improves strictly and every start point is a fixed point
    rng = np.random.default_rng(10)
    truth, probs = random_oof(rng, 40, 3, 1.0)
    stacked = np.stack([probs] * 3)
    for start in ([1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]):
        start = np.array(start)
        weights, objective = _ascend(stacked, truth, start, (0.5, 0.1),
                                     np.random.default_rng(0))
        assert weights.tolist() == start.tolist()
        assert objective == micro_f1(predicted_classes(probs), truth)
