"""The column view of an observation table: every label-free column as a
numpy array, derived once. The numeric columns and the day parts are the
None-coded columns that `dataset.derived_columns` builds, converted whole,
so `dataset` alone decomposes a timestamp.

`ObservationTable.view` imports this module on first use, so `dataset`
itself imports no numpy. The view is the input of the feature stack; the
CLI stages that parse, describe and write tables (`ingest`, `eda`,
`report`) read the table's columns directly and never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import textfeat
from .dataset import COMMENT_FIELDS, derived_columns


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
    """Derive the column view from a table's columns: the numeric columns
    and day parts of `dataset.derived_columns` convert whole (None becomes
    NaN), the other categorical columns convert to objects, and each comment
    is tokenized once."""
    n = len(columns["id"])
    derived, day_parts = derived_columns(columns)
    numeric = {name: np.array(column, dtype=float)
               for name, column in derived.items()}
    categorical = {name: _objects(columns[name], n)
                   for name in ("sensor_type", "clouds", "constellation")}
    categorical["time_of_day_category"] = _objects(day_parts, n)
    tokens = {name: _objects(map(textfeat.tokenize, columns[name]), n)
              for name in COMMENT_FIELDS}
    missing = {name: np.isnan(col) for name, col in numeric.items()}
    missing.update((name, np.equal(col, None)) for name, col in categorical.items())
    return ColumnView(numeric, categorical, tokens, missing)
