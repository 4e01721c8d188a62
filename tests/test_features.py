import math
from datetime import datetime

import numpy as np
import pytest

from skyglow.dataset import ObservationTable, decompose_time, epoch_seconds
from skyglow.errors import InsufficientDataError, ParameterError, UnknownFieldError
from skyglow.features.neighbors import neighbor_mean_features
from skyglow.features.pipeline import (
    FeatureConfig,
    N_CLASSES,
    apply_feature_pipeline,
    bin_target,
    build_neighbor_index,
    fit_feature_pipeline,
    neighbor_points,
    target_classes,
)
from skyglow.features.stack import (
    NEIGHBOR_FEATURES,
    StackSpec,
    apply_stack,
    fit_stack,
)

from helpers import grid_table, obs


def test_decompose_time_known_instant():
    t = decompose_time(datetime(2014, 3, 1, 6, 30, 15))
    assert t.year == 2014
    assert t.month == 3
    assert t.day_of_year == 60  # 2014 is not a leap year
    assert t.seconds_of_day == 6 * 3600 + 30 * 60 + 15


def test_epoch_seconds_offsets():
    base = datetime(1970, 1, 1, 0, 0, 0)
    assert epoch_seconds(base, 0.0) == 0.0
    # local midnight at UTC+5.5 is 5.5 h before UTC midnight
    assert epoch_seconds(base, 5.5) == -5.5 * 3600
    assert epoch_seconds(base, None) == 0.0  # missing zone treated as UTC
    assert epoch_seconds(datetime(1970, 1, 2), 0.0) == 86400.0


@pytest.mark.parametrize("mag,expected", [
    (-3.0, 0), (-0.5, 0), (0.49, 0), (0.5, 1), (1.49, 1),
    (3.5, 4), (6.49, 6), (6.5, 7), (7.0, 7), (11.0, 7),
])
def test_bin_target(mag, expected):
    assert bin_target(mag) == expected


def test_target_classes_nan_for_missing():
    table = ObservationTable([obs(limiting_magnitude=None),
                              obs(id="r1", limiting_magnitude=5.2)])
    classes = target_classes(table)
    assert math.isnan(classes[0]) and classes[1] == 5.0
    assert N_CLASSES == 8


def test_pipeline_standardizes_train_columns():
    table = grid_table(200, seed=1)
    model = fit_feature_pipeline(table)
    matrix = apply_feature_pipeline(model, table)
    lat = matrix[:, model.output_columns.index("latitude")]
    assert abs(lat.mean()) < 1e-9
    assert abs(lat.std() - 1.0) < 1e-6
    assert np.isfinite(matrix).all()


def test_pipeline_quantile_clipping():
    # one wild outlier must land at the clip boundary, not beyond
    recs = [obs(id=f"r{i}", elevation_m=float(i)) for i in range(100)]
    recs.append(obs(id="wild", elevation_m=1e9))
    table = ObservationTable(recs)
    model = fit_feature_pipeline(table, FeatureConfig(quantile_low=0.01,
                                                      quantile_high=0.99))
    stats = model.numeric_stats("elevation_m")
    assert stats.clip_high < 1e9
    matrix = apply_feature_pipeline(model, table)
    col = matrix[:, model.output_columns.index("elevation_m")]
    assert col.max() == col[table.ids.index("wild")]
    raw_hi = (stats.clip_high - stats.mean) / stats.std
    assert abs(col.max() - raw_hi) < 1e-12


def test_pipeline_median_impute_and_indicator():
    recs = [obs(id=f"r{i}", sensor_reading=float(i)) for i in range(10)]
    recs += [obs(id=f"m{i}", sensor_reading=None) for i in range(10)]
    table = ObservationTable(recs)
    model = fit_feature_pipeline(table)
    stats = model.numeric_stats("sensor_reading")
    assert stats.impute == 4.5  # median of 0..9
    matrix = apply_feature_pipeline(model, table)
    columns = model.output_columns
    assert "sensor_reading_missing" in columns
    flag = matrix[:, columns.index("sensor_reading_missing")]
    assert flag[:10].sum() == 0 and flag[10:].sum() == 10
    # imputed rows all sit at the standardized median
    imputed = matrix[10:, columns.index("sensor_reading")]
    assert np.allclose(imputed, imputed[0])


def test_pipeline_rare_missingness_gets_no_indicator():
    recs = [obs(id=f"r{i}", sensor_reading=float(i)) for i in range(999)]
    recs.append(obs(id="m", sensor_reading=None))
    model = fit_feature_pipeline(ObservationTable(recs),
                                 FeatureConfig(indicator_threshold=0.01))
    matrix = apply_feature_pipeline(model, ObservationTable(recs))
    assert matrix.shape[1] == len(model.output_columns)
    assert "sensor_reading_missing" not in model.output_columns


def test_pipeline_constant_column_zeroed():
    table = ObservationTable([obs(id=f"r{i}", elevation_m=5.0) for i in range(8)])
    model = fit_feature_pipeline(table)
    matrix = apply_feature_pipeline(model, table)
    assert (matrix[:, model.output_columns.index("elevation_m")] == 0.0).all()
    assert any("constant" in d for d in model.diagnostics)


def test_pipeline_all_missing_column_excluded():
    table = ObservationTable([obs(id=f"r{i}", sensor_reading=None)
                              for i in range(8)])
    model = fit_feature_pipeline(table)
    matrix = apply_feature_pipeline(model, table)
    assert matrix.shape[1] == len(model.output_columns)
    assert "sensor_reading" not in model.output_columns
    assert model.numeric_stats("sensor_reading") is None
    assert any("sensor_reading" in d for d in model.diagnostics)
    with pytest.raises(UnknownFieldError):
        model.numeric_stats("never_a_feature")


def test_categorical_codes_and_unseen():
    train = ObservationTable([obs(id="a", clouds="clear"),
                              obs(id="b", clouds="overcast"),
                              obs(id="c", clouds=None)])
    model = fit_feature_pipeline(train)
    test = ObservationTable([obs(id="x", clouds="cirrus"),  # unseen
                             obs(id="y", clouds="clear"),
                             obs(id="z", clouds=None)])
    matrix = apply_feature_pipeline(model, test)
    col = matrix[:, model.output_columns.index("clouds")]
    # categories sorted: clear=1, overcast=2; unseen and missing -> 0
    assert col.tolist() == [0.0, 1.0, 0.0]
    assert "clouds_missing" in model.output_columns


def test_apply_columns_stable_across_tables():
    table = grid_table(60, seed=2)
    model = fit_feature_pipeline(table)
    a = apply_feature_pipeline(model, table)
    b = apply_feature_pipeline(model, grid_table(30, seed=3))
    assert a.shape[1] == b.shape[1] == len(model.output_columns)


def test_feature_config_validation():
    with pytest.raises(ParameterError):
        FeatureConfig(quantile_low=0.9, quantile_high=0.1)
    with pytest.raises(ParameterError):
        FeatureConfig(knn_k=0)
    with pytest.raises(ParameterError):
        FeatureConfig(indicator_threshold=-0.2)


def test_neighbor_points_skip_unlocatable_rows():
    table = ObservationTable([
        obs(id="a"), obs(id="b", latitude=None), obs(id="c", time=None),
        obs(id="d", latitude=11.0),
    ])
    model = fit_feature_pipeline(table)
    index = build_neighbor_index(table, model, [0, 1, 0, 1])
    assert list(index.table_rows) == [0, 3]
    means, counts = neighbor_mean_features(
        index, np.array([1.0, 2.0, 3.0, 4.0]), 5)
    assert counts.tolist() == [1, 0, 0, 1]  # absent rows: no neighbors
    assert means[0] == 4.0 and means[3] == 1.0  # rows 0 and 3 pair up


def test_neighbor_index_needs_two_rows():
    table = ObservationTable([obs(id="a"), obs(id="b", latitude=None)])
    model = fit_feature_pipeline(table)
    with pytest.raises(InsufficientDataError):
        build_neighbor_index(table, model, [0, 1])


# --- feature stack ---

def test_fit_stack_matrix_covers_all_rows():
    table = grid_table(80, seed=4)
    targets = target_classes(table)
    folds = np.arange(len(table)) % 4
    stack, matrix = fit_stack(table, targets, folds, FeatureConfig(),
                              StackSpec(svd_rank=4), seed=0)
    assert matrix.shape == (len(table), len(stack.columns))
    assert "neighbor_target_mean" in stack.columns
    assert any(c.startswith("comment_1_svd_") for c in stack.columns)
    assert np.isfinite(matrix).all()


def test_stack_without_text_or_neighbors():
    table = grid_table(40, seed=5)
    targets = target_classes(table)
    folds = np.arange(len(table)) % 4
    stack, matrix = fit_stack(table, targets, folds, FeatureConfig(),
                              StackSpec(use_text=False, use_neighbor=False),
                              seed=0)
    assert matrix.shape[1] == len(stack.columns)
    assert "neighbor_target_mean" not in stack.columns
    assert not any("svd" in c for c in stack.columns)


def test_stack_fitted_on_masked_rows_only():
    table = grid_table(60, seed=6)
    targets = target_classes(table)
    mask = np.arange(len(table)) < 30
    folds = np.arange(len(table)) % 3
    stack, _ = fit_stack(table.subset(mask), targets[mask], folds[mask],
                         FeatureConfig(),
                         StackSpec(use_text=False, use_neighbor=False), seed=0)
    sub = ObservationTable(r for i, r in enumerate(table) if mask[i])
    direct = fit_feature_pipeline(sub, FeatureConfig())
    a = stack.pipeline.numeric_stats("latitude")
    b = direct.numeric_stats("latitude")
    assert a.mean == b.mean and a.std == b.std


def test_apply_stack_reproduces_non_neighbor_columns():
    table = grid_table(50, seed=7)
    targets = target_classes(table)
    folds = np.arange(len(table)) % 5
    stack, fitted = fit_stack(table, targets, folds, FeatureConfig(),
                              StackSpec(svd_rank=3), seed=1)
    applied = apply_stack(stack, table)
    assert applied.shape == fitted.shape
    for j, col in enumerate(stack.columns):
        if col.startswith("neighbor_"):
            continue  # OOF during fit vs reference lookup at apply time
        assert np.array_equal(applied[:, j], fitted[:, j]), col


def fit_and_apply_held_out(table, folds, held_out, knn_k):
    """Fit a stack without text on the rows outside `held_out` and apply
    it to the held-out rows; also return the held-out fold's out-of-fold
    neighbor (means, counts) over an index of every row, whose pool
    outside that fold is the training rows."""
    targets = target_classes(table)
    train = ~held_out
    stack, fitted = fit_stack(table.subset(train), targets[train],
                              folds[train], FeatureConfig(knn_k=knn_k),
                              StackSpec(use_text=False), seed=0)
    applied = apply_stack(stack, table.subset(held_out))
    index = build_neighbor_index(table, stack.pipeline, folds)
    means, counts = neighbor_mean_features(index, targets, knn_k)
    return stack, fitted, applied, (means[held_out], counts[held_out])


def test_apply_stack_neighbor_columns_equal_held_out_fit():
    # r2 and r6 train without coordinates and carry class 7 among class-1
    # rows, so the coordinate-less held-out row r9 sees whether the fallback
    # counts them: the held-out fold's out-of-fold fallback does (1.6)
    table = ObservationTable(
        obs(id=f"r{i}", latitude=None if i in (2, 6, 9) else float(i),
            longitude=float(2 * i),
            limiting_magnitude=7.0 if i in (2, 6) else 1.0)
        for i in range(40))
    folds = np.arange(len(table)) % 2
    stack, _, applied, held_out_fit = fit_and_apply_held_out(
        table, folds, folds == 1, knn_k=3)
    for col, expected in zip(NEIGHBOR_FEATURES, held_out_fit):
        assert np.array_equal(applied[:, stack.columns.index(col)],
                              expected), col
    assert applied[9 // 2, stack.columns.index("neighbor_target_mean")] == 1.6


def test_neighbor_pool_is_the_training_rows():
    # the held-out fold's rows take no neighbor slot and no part of the
    # fallback; each training row averages k rows of the other training fold
    table = ObservationTable(
        obs(id=f"r{i}", latitude=float(i), longitude=float(2 * i),
            limiting_magnitude=float(i % 7))
        for i in range(40))
    targets = target_classes(table)
    folds = np.arange(len(table)) % 3
    held_out = folds == 2
    stack, fitted, applied, held_out_fit = fit_and_apply_held_out(
        table, folds, held_out, knn_k=3)
    for col, expected in zip(NEIGHBOR_FEATURES, held_out_fit):
        assert np.array_equal(applied[:, stack.columns.index(col)],
                              expected), col
    assert (fitted[:, stack.columns.index("neighbor_count")] == 3).all()
    assert len(stack.neighbor.values) == (~held_out).sum()
    assert stack.neighbor.fallback == targets[~held_out].mean()


def test_fit_stack_rejects_a_training_row_without_a_target():
    table = ObservationTable(
        obs(id=f"r{i}", latitude=float(i),
            limiting_magnitude=None if i == 5 else float(i % 7))
        for i in range(20))
    targets = target_classes(table)
    folds = np.arange(len(table)) % 2
    for spec in (StackSpec(use_text=False),
                 StackSpec(use_text=False, use_neighbor=False)):
        with pytest.raises(ParameterError, match="must have a target"):
            fit_stack(table, targets, folds, FeatureConfig(knn_k=3), spec,
                      seed=0)
    # a row the stack is only applied to may lack one
    train = np.arange(len(table)) != 5
    stack, fitted = fit_stack(table.subset(train), targets[train], folds[train],
                              FeatureConfig(knn_k=3), StackSpec(use_text=False),
                              seed=0)
    assert np.isfinite(fitted).all()
    assert np.isfinite(apply_stack(stack, table.subset(~train))).all()


def test_fit_stack_weighs_each_document_once(monkeypatch):
    from skyglow import textfeat

    weighed = []
    transform_tfidf = textfeat.transform_tfidf

    def counting(model, corpus):
        weighed.append(len(corpus))
        return transform_tfidf(model, corpus)

    monkeypatch.setattr(textfeat, "transform_tfidf", counting)
    table = ObservationTable(
        obs(id=f"r{i}", latitude=float(i), comment_1=f"sky note {i % 7}",
            comment_2=("clear", "hazy", "bright")[i % 3] + " sky")
        for i in range(30))
    # fitted on the first 20 rows and applied to the other 10
    train = np.arange(len(table)) < 20
    stack, _ = fit_stack(table.subset(train), target_classes(table)[train],
                         np.arange(20) % 2, FeatureConfig(),
                         StackSpec(svd_rank=2), seed=0)
    apply_stack(stack, table.subset(~train))
    assert all(model.svd is not None and model.svd.rank
               for _, model in stack.text_models)
    assert sum(weighed) == 2 * len(table)
