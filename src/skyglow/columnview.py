"""The column view of an observation table: every label-free column,
derived once from the table's columns as numpy arrays.

`ObservationTable.view` imports this module on first use, so `dataset`
itself imports no numpy, and the CLI stages that only parse and write
tables (`ingest`, `report`) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import textfeat
from .dataset import (
    _AFTERNOON,
    _EVENING,
    _MORNING,
    _NIGHT,
    COMMENT_FIELDS,
    NUMERIC_FIELDS,
)

# Day part of each interval between the boundaries, for searchsorted.
_DAY_PART_STARTS = np.array([_MORNING, _AFTERNOON, _EVENING, _NIGHT])
_DAY_PARTS = np.array(["night", "morning", "afternoon", "evening", "night"],
                      dtype=object)


@dataclass(frozen=True, eq=False)
class ColumnView:
    """Every label-free column of a table, row-aligned with it:

    - numeric: float64, NaN where missing: the raw numeric fields,
      population and the TIME_PARTS;
    - categorical: objects, None where missing: CATEGORICAL_REPORT_FIELDS;
    - tokens: one `tokenize` list per row for each of COMMENT_FIELDS;
    - missing: a boolean mask for every numeric and categorical column.

    Every consumer of a table reads the same arrays, so each is read-only.
    """

    numeric: dict[str, np.ndarray]
    categorical: dict[str, np.ndarray]
    tokens: dict[str, np.ndarray]
    missing: dict[str, np.ndarray]

    def __post_init__(self):
        for part in (self.numeric, self.categorical, self.tokens, self.missing):
            for column in part.values():
                column.flags.writeable = False

    def subset(self, rows: np.ndarray) -> "ColumnView":
        """The view of the rows where the boolean mask `rows` is set."""
        return ColumnView(*({name: column[rows] for name, column in part.items()}
                            for part in (self.numeric, self.categorical,
                                         self.tokens, self.missing)))


def _objects(values: Iterable[object], n: int) -> np.ndarray:
    """A 1-d object array holding each of `values` as one element."""
    return np.fromiter(values, dtype=object, count=n)


def derive_view(columns: dict[str, tuple]) -> ColumnView:
    """Derive the column view from a table's columns: each numeric and
    categorical column converts whole, the time parts come from datetime64
    arithmetic (the array form of `decompose_time` and `epoch_seconds`),
    and each comment is tokenized once."""
    n = len(columns["id"])
    numeric = {name: np.array(columns[name], dtype=float)
               for name in NUMERIC_FIELDS + ("population",)}
    categorical = {name: _objects(columns[name], n)
                   for name in ("sensor_type", "clouds", "constellation")}
    tokens = {name: _objects(map(textfeat.tokenize, columns[name]), n)
              for name in COMMENT_FIELDS}

    # Whole seconds, as parse_timestamp leaves them (a sub-second part is
    # dropped); a missing time is NaT.
    times = np.array(columns["time"], dtype="datetime64[s]")
    present = ~np.isnat(times)
    stamps = times[present]
    years = stamps.astype("datetime64[Y]")
    days = stamps.astype("datetime64[D]")
    seconds = (stamps - days).astype(np.int64)
    zones = numeric["time_zone"][present]
    parts = {
        "year": years.astype(np.int64) + 1970,
        "month": stamps.astype("datetime64[M]").astype(np.int64) % 12 + 1,
        "day_of_year": (days - years).astype(np.int64) + 1,
        "seconds_of_day": seconds,
        # a missing offset is taken as UTC
        "epoch_time": (stamps.astype(np.int64)
                       - np.where(np.isnan(zones), 0.0, zones) * 3600.0),
    }
    for name, values in parts.items():
        numeric[name] = np.full(n, np.nan)
        numeric[name][present] = values
    categorical["time_of_day_category"] = np.full(n, None, dtype=object)
    categorical["time_of_day_category"][present] = _DAY_PARTS[
        np.searchsorted(_DAY_PART_STARTS, seconds, side="right")]

    missing = {name: np.isnan(col) for name, col in numeric.items()}
    missing.update((name, np.equal(col, None)) for name, col in categorical.items())
    return ColumnView(numeric, categorical, tokens, missing)
