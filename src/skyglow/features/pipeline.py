"""Feature engineering: target binning, and the fitted clip/standardize/
encode pipeline that turns the column view of an observation table
(`ObservationTable.view`: time parts, numerics, categoricals, missing
masks) into a dense float array.

All statistics (quantile clip bounds, means, population stds, medians,
category maps) are fitted on a training table once and frozen; applying the
pipeline is pure and never produces non-finite values. The array carries no
names: its columns are `FeaturePipelineModel.output_columns`, in order.
The quantiles and medians are `skyglow.orderstats`' copies of numpy's,
equal bit for bit, which do not import `numpy.ma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..dataset import CATEGORICAL_REPORT_FIELDS, TIME_PARTS, ObservationTable
from ..errors import (
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    UnknownFieldError,
)
from ..orderstats import median, quantile
from ..specs import N_CLASSES, FeatureConfig

# The numeric and categorical columns of a table's view that the pipeline fits.
NUMERIC_FEATURES = ("time_zone", "latitude", "longitude", "elevation_m",
                    "sensor_reading", "population") + TIME_PARTS
CATEGORICAL_FEATURES = CATEGORICAL_REPORT_FIELDS

# Coordinates of the neighbor-query space, in order.
NEIGHBOR_SPACE = ("latitude", "longitude", "epoch_time", "time_zone")


def bin_target(limiting_magnitude: float) -> int:
    """Round half up, then clamp to the class range [0, 7]."""
    if not math.isfinite(limiting_magnitude):
        raise ParameterError(f"target must be finite, got {limiting_magnitude!r}")
    cls = math.floor(limiting_magnitude + 0.5)
    return min(max(cls, 0), N_CLASSES - 1)


def target_classes(table: ObservationTable) -> np.ndarray:
    """Per-row class ids as float64; NaN where the target is missing."""
    present = ~table.view.missing["limiting_magnitude"]
    out = np.full(len(table), np.nan)
    out[present] = [bin_target(m) for m in
                    table.view.numeric["limiting_magnitude"][present].tolist()]
    return out


@dataclass(frozen=True)
class NumericStats:
    column: str
    clip_low: float
    clip_high: float
    mean: float
    std: float
    impute: float
    constant: bool
    missing_fraction: float


@dataclass(frozen=True)
class CategoryMap:
    column: str
    categories: tuple[str, ...]  # index i maps category -> code i + 1; 0 reserved
    missing_fraction: float

    def codes(self, values: Iterable[str | None]) -> np.ndarray:
        """The code of each value as a float; missing and unseen values
        take the reserved 0."""
        lookup = {category: i + 1 for i, category in enumerate(self.categories)}
        return np.array([float(lookup.get(value, 0)) for value in values])


@dataclass(frozen=True)
class FeaturePipelineModel:
    config: FeatureConfig
    numeric: tuple[NumericStats, ...]
    categorical: tuple[CategoryMap, ...]
    excluded: tuple[str, ...]
    indicator_columns: tuple[str, ...]
    diagnostics: tuple[str, ...] = field(default=())

    def numeric_stats(self, column: str) -> NumericStats | None:
        """Stats for a fitted column; None if it was excluded at fit time."""
        for stats in self.numeric:
            if stats.column == column:
                return stats
        if column in self.excluded:
            return None
        raise UnknownFieldError(f"column {column!r} was not fitted")

    @property
    def output_columns(self) -> tuple[str, ...]:
        names = [s.column for s in self.numeric]
        names.extend(c.column for c in self.categorical)
        names.extend(f"{c}_missing" for c in self.indicator_columns)
        return tuple(names)


def fit_feature_pipeline(table: ObservationTable,
                         config: FeatureConfig | None = None) -> FeaturePipelineModel:
    """Fit clip bounds, post-clip moments, medians, and category maps.

    Clip bounds are linear-interpolation quantiles of the present values;
    mean, population std, and the median impute value are computed after
    clipping. Entirely-missing columns are excluded with a diagnostic.
    """
    if config is None:
        config = FeatureConfig()
    if len(table) == 0:
        raise EmptyInputError("cannot fit a feature pipeline on an empty table")

    view = table.view
    n = len(table)

    fitted: list[NumericStats] = []
    excluded: list[str] = []
    diagnostics: list[str] = []
    indicator: list[str] = []

    for name in NUMERIC_FEATURES:
        present = view.numeric[name][~view.missing[name]]
        missing_fraction = 1.0 - present.size / n
        if present.size == 0:
            excluded.append(name)
            diagnostics.append(f"column {name!r} excluded: all values missing")
            continue
        low = quantile(present, config.quantile_low)
        high = quantile(present, config.quantile_high)
        clipped = np.clip(present, low, high)
        mean = float(clipped.mean())
        std = float(clipped.std())
        impute = median(clipped)
        if std == 0.0:
            diagnostics.append(
                f"column {name!r} is constant after clipping; emitting zeros")
        fitted.append(NumericStats(name, low, high, mean, std, impute,
                                   constant=(std == 0.0),
                                   missing_fraction=missing_fraction))
        if missing_fraction > config.indicator_threshold:
            indicator.append(name)

    maps: list[CategoryMap] = []
    for name in CATEGORICAL_FEATURES:
        present = view.categorical[name][~view.missing[name]]
        missing_fraction = 1.0 - len(present) / n
        if len(present) == 0:
            excluded.append(name)
            diagnostics.append(f"column {name!r} excluded: all values missing")
            continue
        categories = tuple(sorted(set(present)))
        maps.append(CategoryMap(name, categories, missing_fraction))
        if missing_fraction > config.indicator_threshold:
            indicator.append(name)

    return FeaturePipelineModel(config, tuple(fitted), tuple(maps),
                                tuple(excluded), tuple(indicator),
                                tuple(diagnostics))


def apply_feature_pipeline(model: FeaturePipelineModel,
                           table: ObservationTable) -> np.ndarray:
    """Impute, clip, and z-score numerics; code categoricals; add indicators.

    Constant columns emit 0. Unseen and missing categories map to the
    reserved code 0. The output is a float array with one row per table row
    and one column per name in `model.output_columns`, fully finite.
    """
    view = table.view
    n = len(table)

    blocks: list[np.ndarray] = []
    for stats in model.numeric:
        col = np.where(view.missing[stats.column], stats.impute,
                       view.numeric[stats.column])
        col = np.clip(col, stats.clip_low, stats.clip_high)
        if stats.constant:
            blocks.append(np.zeros(n))
        else:
            blocks.append((col - stats.mean) / stats.std)
    for cmap in model.categorical:
        blocks.append(cmap.codes(view.categorical[cmap.column]))
    for name in model.indicator_columns:
        blocks.append(view.missing[name].astype(float))

    return np.column_stack(blocks) if blocks else np.zeros((n, 0))


@dataclass(frozen=True)
class NeighborIndex:
    """The usable rows of a table as points in the standardized 4-space
    (latitude, longitude, epoch_time, time_zone), with the fold label of
    every table row.

    Rows missing latitude, longitude, or time are left out of the points;
    `table_rows` maps each point back to its table row, so features stay
    row-aligned with the source table.
    """

    points: np.ndarray       # (len(table_rows), 4)
    table_rows: np.ndarray   # table row of each point, ascending
    fold_labels: np.ndarray  # (n_rows,), one per table row


def neighbor_points(table: ObservationTable,
                    model: FeaturePipelineModel) -> tuple[np.ndarray, np.ndarray]:
    """Standardized (lat, lon, epoch_time, tz) points for every row that
    has latitude, longitude, and time; returns (points, table_rows).

    A missing timezone offset contributes a raw 0 (UTC). Columns the
    pipeline excluded or flagged constant contribute a fixed coordinate.
    """
    view = table.view
    missing = view.missing
    table_rows = np.nonzero(
        ~(missing["latitude"] | missing["longitude"] | missing["epoch_time"]))[0]

    coords = []
    for name in NEIGHBOR_SPACE:
        col = view.numeric[name][table_rows]
        if name == "time_zone":
            col = np.where(np.isnan(col), 0.0, col)
        stats = model.numeric_stats(name)
        if stats is None or stats.constant:
            coords.append(np.zeros(len(table_rows)))
        else:
            coords.append((col - stats.mean) / stats.std)
    return np.column_stack(coords), table_rows


def build_neighbor_index(table: ObservationTable, model: FeaturePipelineModel,
                         fold_labels: np.ndarray) -> NeighborIndex:
    """Index every usable row of `table` in the standardized 4-space."""
    n = len(table)
    fold_labels = np.asarray(fold_labels, dtype=np.int64)
    if fold_labels.shape != (n,):
        raise ParameterError(
            f"fold labels must have shape ({n},), got {fold_labels.shape}")
    points, table_rows = neighbor_points(table, model)
    if len(table_rows) < 2:
        raise InsufficientDataError(
            f"neighbor index needs at least 2 usable rows, found {len(table_rows)}")
    return NeighborIndex(points, table_rows, fold_labels)
