import struct

import numpy as np
import pytest

from skyglow.errors import ParseError
from skyglow.features.pipeline import (
    FeatureConfig,
    FeaturePipelineModel,
    apply_feature_pipeline,
    fit_feature_pipeline,
    target_classes,
)
from skyglow.features.stack import (
    StackModel,
    StackSpec,
    apply_stack,
    fit_stack,
)
from skyglow.learners.forest import fit_forest, predict_proba_forest
from skyglow.learners.gbdt import fit_gbdt, predict_proba_gbdt
from skyglow.learners.params import LearnerParams
from skyglow.serialize import (
    array_from_obj,
    array_to_obj,
    decode_json,
    from_obj,
    json_text,
    learner_from_obj,
    learner_to_obj,
    load_json,
    save_json,
    stack_from_obj,
    stack_to_obj,
    to_obj,
)
from skyglow.textfeat import (
    TextFeatureModel,
    fit_text_features,
    tokenize,
    transform_text_features,
)

from helpers import grid_table


def fitted_stack():
    table = grid_table(60, seed=21)
    targets = target_classes(table)
    folds = np.arange(len(table)) % 4
    stack, matrix = fit_stack(table, targets, folds, FeatureConfig(svd_rank=3),
                              StackSpec(), seed=1)
    return table, stack, matrix


def disk_round_trip(tmp_path, payload):
    path = tmp_path / "sidecar.json"
    save_json(path, payload)
    return load_json(path)


def test_array_round_trip_preserves_dtype_shape_and_bits():
    arrays = [
        np.array([0.1 + 0.2, -1.5e-300, 3.7e300]),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.zeros((0, 4)),
        np.array([], dtype=np.int64),
    ]
    for a in arrays:
        b = array_from_obj(array_to_obj(a))
        assert b.dtype == a.dtype and b.shape == a.shape
        assert np.array_equal(a, b)


def test_pipeline_round_trip_transforms_identically(tmp_path):
    table = grid_table(50, seed=22)
    model = fit_feature_pipeline(table, FeatureConfig(quantile_low=0.05,
                                                      quantile_high=0.95))
    again = from_obj(FeaturePipelineModel,
                     disk_round_trip(tmp_path, to_obj(model)))
    assert again == model
    first = apply_feature_pipeline(model, table)
    second = apply_feature_pipeline(again, table)
    assert again.output_columns == model.output_columns
    assert np.array_equal(first, second)


def test_text_model_round_trip(tmp_path):
    corpus = [tokenize(t) for t in [
        "dark sky many stars", "bright city glow", None,
        "faint milky way", "dark transparent sky", "city lights haze"]]
    model, _ = fit_text_features(corpus, cap=16, rank=2, seed=5)
    again = from_obj(TextFeatureModel, disk_round_trip(tmp_path, to_obj(model)))
    assert np.array_equal(transform_text_features(model, corpus),
                          transform_text_features(again, corpus))


def test_stack_round_trip_applies_identically(tmp_path):
    table, stack, matrix = fitted_stack()
    again = stack_from_obj(disk_round_trip(tmp_path, stack_to_obj(stack)))
    assert again.columns == stack.columns
    applied = apply_stack(again, table)
    fresh = apply_stack(stack, table)
    assert np.array_equal(applied, fresh)


def test_gbdt_round_trip_predicts_identically(tmp_path):
    _, stack, matrix = fitted_stack()
    y = np.arange(matrix.shape[0]) % 3
    params = LearnerParams(n_rounds=12, learning_rate=0.3, seed=2)
    model = fit_gbdt(matrix, y, params)
    again = learner_from_obj(disk_round_trip(tmp_path, learner_to_obj(model)))
    assert np.array_equal(predict_proba_gbdt(model, matrix),
                          predict_proba_gbdt(again, matrix))
    assert again.params == model.params
    assert again.train_losses == model.train_losses


def test_forest_round_trip_predicts_identically(tmp_path):
    _, stack, matrix = fitted_stack()
    y = np.arange(matrix.shape[0]) % 3
    params = LearnerParams(n_rounds=15, seed=4)
    model = fit_forest(matrix, y, params)
    again = learner_from_obj(disk_round_trip(tmp_path, learner_to_obj(model)))
    assert np.array_equal(predict_proba_forest(model, matrix),
                          predict_proba_forest(again, matrix))


def test_learner_kind_dispatch(tmp_path):
    X = np.array([[0.0], [1.0], [2.0], [3.0]] * 4)
    y = np.array([0, 0, 1, 1] * 4)
    gbdt = fit_gbdt(X, y, LearnerParams(n_rounds=3))
    forest = fit_forest(X, y, LearnerParams(n_rounds=3))
    assert learner_to_obj(gbdt)["kind"] == "gbdt"
    assert learner_to_obj(forest)["kind"] == "forest"
    assert type(learner_from_obj(learner_to_obj(gbdt))).__name__ == "GbdtModel"
    assert type(learner_from_obj(learner_to_obj(forest))).__name__ == "ForestModel"
    with pytest.raises(ParseError):
        learner_from_obj({"kind": "perceptron"})
    with pytest.raises(ParseError):
        learner_to_obj(object())


def test_save_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        save_json(tmp_path / "bad.json", {"x": float("nan")})


def test_load_json_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_json(path)


@pytest.mark.parametrize("data", [
    b'{"x":NaN}', b'{"x":[1.0,Infinity]}', b'{"x":-Infinity}',
    b'{"x":1e999}', b'{"x":-1.5e400}', b'\xff{"x":1.0}', b'{"x":"\xe9"}',
])
def test_decode_json_rejects_what_save_json_never_writes(data):
    with pytest.raises(ParseError, match="invalid sidecar file side.json: "):
        decode_json(data, "side.json")


def test_json_text_is_one_line_that_reloads_bit_exactly():
    floats = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
              -1.7976931348623157e308, 3.0, -2.0, 2.0 ** 53, 1e22, 0.1 + 0.2]
    arrays = {"floats": np.array(floats),
              "empty": np.zeros((0, 3)),
              "empty_ints": np.zeros((0, 2), dtype=np.int64)}
    payload = {"scalars": floats,
               **{key: array_to_obj(a) for key, a in arrays.items()}}
    text = json_text(payload)
    assert text.endswith("\n") and "\n" not in text[:-1]
    again = decode_json(text.encode("utf-8"), "payload.json")
    assert all(type(v) is float for v in again["scalars"])
    assert ([struct.pack("<d", v) for v in again["scalars"]]
            == [struct.pack("<d", v) for v in floats])
    for key, a in arrays.items():
        b = array_from_obj(again[key])
        assert (b.dtype, b.shape) == (a.dtype, a.shape)
        assert b.tobytes() == a.tobytes()


@pytest.mark.parametrize("obj", [
    {"dtype": "object", "shape": [1], "data": [1]},
    {"dtype": "str", "shape": [1], "data": ["a"]},
    {"dtype": "complex128", "shape": [1], "data": [1.0]},
    {"dtype": "float64", "shape": [1], "data": [10 ** 400]},
])
def test_array_from_obj_rejects_what_array_to_obj_never_writes(obj):
    with pytest.raises(ParseError, match="array does not fit"):
        from_obj(np.ndarray, obj)


def test_identical_payloads_produce_identical_bytes(tmp_path):
    _, stack, _ = fitted_stack()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_json(a, stack_to_obj(stack))
    save_json(b, stack_to_obj(stack))
    assert a.read_bytes() == b.read_bytes()


def fitted_learners():
    _, stack, matrix = fitted_stack()
    y = np.arange(matrix.shape[0]) % 3
    gbdt = fit_gbdt(matrix, y, LearnerParams(n_rounds=3, seed=2),
                    feature_names=stack.columns)
    forest = fit_forest(matrix, y, LearnerParams(n_trees=3, seed=4),
                        feature_names=stack.columns)
    return stack, gbdt, forest


def test_sidecar_keys_are_pinned():
    # The keys follow the dataclass field names; renaming a field changes
    # the file format, and this test names the change.
    stack, gbdt, forest = fitted_learners()
    obj = stack_to_obj(stack)
    assert sorted(obj) == ["columns", "neighbor", "pipeline", "spec",
                           "text_models"]
    assert sorted(obj["spec"]) == ["use_neighbor", "use_text"]
    assert sorted(obj["pipeline"]["config"]) == [
        "indicator_threshold", "knn_k", "quantile_high", "quantile_low",
        "svd_rank", "vocab_cap"]
    assert sorted(obj["pipeline"]) == ["categorical", "config", "diagnostics",
                                       "excluded", "indicator_columns",
                                       "numeric"]
    assert sorted(obj["pipeline"]["numeric"][0]) == [
        "clip_high", "clip_low", "column", "constant", "impute", "mean",
        "missing_fraction", "std"]
    assert sorted(obj["pipeline"]["categorical"][0]) == [
        "categories", "column", "missing_fraction"]
    assert sorted(obj["neighbor"]) == ["fallback", "k", "points", "values"]
    assert sorted(obj["neighbor"]["points"]) == ["data", "dtype", "shape"]
    column, text_model = obj["text_models"][0]
    assert isinstance(column, str)
    assert sorted(text_model) == ["svd", "tfidf"]
    assert sorted(text_model["tfidf"]) == ["cap", "degenerate",
                                           "document_count", "idf",
                                           "vocabulary"]
    assert sorted(text_model["svd"]) == ["components", "rank", "seed",
                                         "singular_values"]

    obj = learner_to_obj(gbdt)
    assert sorted(obj) == ["diagnostics", "feature_names", "init_scores",
                           "kind", "n_classes", "params", "train_losses",
                           "trees", "validation_losses"]
    assert sorted(obj["params"]) == [
        "early_stopping_patience", "l2_regularization", "learning_rate",
        "max_bins", "max_leaves", "min_samples_leaf", "n_rounds", "n_trees",
        "seed"]
    assert sorted(obj["trees"][0][0]) == ["feature", "left", "right",
                                          "threshold", "value"]
    obj = learner_to_obj(forest)
    assert sorted(obj) == ["diagnostics", "feature_names", "kind",
                           "n_classes", "params", "trees"]
    assert sorted(obj["trees"][0]) == ["distribution", "feature", "left",
                                       "right", "threshold"]


def test_every_sidecar_class_round_trips():
    stack, gbdt, forest = fitted_learners()
    text_model = stack.text_models[0][1]
    values = [stack, stack.spec, stack.pipeline.config, stack.pipeline,
              stack.pipeline.numeric[0], stack.pipeline.categorical[0],
              stack.neighbor, text_model, text_model.tfidf, text_model.svd,
              gbdt, gbdt.trees[0][0], gbdt.params, forest, forest.trees[0]]
    for value in values:
        obj = to_obj(value)
        again = from_obj(type(value), obj)
        assert type(again) is type(value)
        assert to_obj(again) == obj, type(value).__name__


def test_malformed_sidecar_raises_parse_error_naming_the_class():
    stack, gbdt, forest = fitted_learners()
    obj = learner_to_obj(forest)
    del obj["params"]
    with pytest.raises(ParseError, match="ForestModel.*params"):
        learner_from_obj(obj)

    obj = learner_to_obj(gbdt)
    obj["colour"] = "blue"
    with pytest.raises(ParseError, match="GbdtModel.*colour"):
        learner_from_obj(obj)

    obj = learner_to_obj(gbdt)
    obj["trees"][0][0]["value"]["data"].append(0.5)
    with pytest.raises(ParseError, match="GbdtModel: RegressionTree: array"):
        learner_from_obj(obj)

    obj = stack_to_obj(stack)
    obj["neighbor"]["points"]["dtype"] = "no such dtype"
    with pytest.raises(ParseError, match="StackModel: NeighborReference"):
        stack_from_obj(obj)

    obj = stack_to_obj(stack)
    obj["text_models"][0] = [obj["text_models"][0][0]]
    with pytest.raises(ParseError, match="StackModel"):
        stack_from_obj(obj)
    with pytest.raises(ParseError, match="StackModel"):
        from_obj(StackModel, [])
