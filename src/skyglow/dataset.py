"""Observation and population tables.

CSV parsing with per-cell missingness, range validation in strict or lenient
mode, the population join with a median fallback, the CSV artifact layer
every stage writes and reads through, and the descriptive reports (missing
counts per field, category shares), which return plain rows whose file
layout the command layer owns. Tables are immutable after construction.

An observation table stores its rows by column, one tuple per
ObservationRecord field. Parsing converts a block of rows at a time column
by column and appends the valid rows' values to the columns, the join adds
the population columns and shares the others, and
the reports and writer read the columns; records are built only when a
caller asks for them.

The time parts of a timestamp are defined here alone (`decompose_time`,
`epoch_seconds`); `derived_columns` builds them for a whole table as
None-coded columns, with each row's day part, and a table keeps them once
built (`ObservationTable.derived`), so `eda`'s correlation columns and its
day-part counts come from one pass over the clock. The `eda` statistics live
here too: those numeric columns (`derived_numeric_columns`), Pearson
correlation over complete pairs and the annual means of a field. Each sum
runs in the order numpy's `np.add.reduce` takes on a contiguous float64
array (`pairwise_sum`), so every result is the float the numpy
formulation gives.

This module is pure Python. A table's column view (`ObservationTable.view`:
every label-free column as a numpy array, derived once) comes from
`columnview`, imported on first use, which converts the columns that
`derived_columns` builds; so parsing and writing a table and every report
and statistic here load no numpy.
"""

from __future__ import annotations

import csv
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import compress, islice
from datetime import datetime
from functools import reduce
from operator import add, attrgetter, mul, not_
from pathlib import Path
from typing import (IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    NamedTuple, Sequence)

from .errors import (
    DuplicateKeyError,
    EmptyInputError,
    ParameterError,
    ParseError,
    RowError,
    SchemaError,
    TimestampError,
    UndefinedCorrelationError,
    UnknownFieldError,
)

if TYPE_CHECKING:
    import numpy as np

    from .columnview import ColumnView

# Canonical observation column order; `type` maps to the `sensor_type` attribute.
OBSERVATION_COLUMNS = (
    "id", "time", "time_zone", "country", "latitude", "longitude",
    "elevation_m", "type", "sensor_reading", "clouds", "constellation",
    "comment_1", "comment_2", "limiting_magnitude",
)
_COLUMN_TO_ATTR = {c: ("sensor_type" if c == "type" else c) for c in OBSERVATION_COLUMNS}

NUMERIC_FIELDS = ("time_zone", "latitude", "longitude", "elevation_m",
                  "sensor_reading", "limiting_magnitude")
TEXT_FIELDS = ("country", "sensor_type", "clouds", "constellation",
               "comment_1", "comment_2")
CATEGORICAL_REPORT_FIELDS = ("sensor_type", "clouds", "constellation",
                             "time_of_day_category")
TIME_PARTS = ("year", "month", "day_of_year", "seconds_of_day", "epoch_time")
COMMENT_FIELDS = ("comment_1", "comment_2")

POPULATION_YEARS = tuple(range(2006, 2021))

# Header of the long census file that write_population writes and
# read_population_long reads.
POPULATION_LONG_HEADER = ("country", "year", "population")

_EPOCH = datetime(1970, 1, 1)

# Local-time day parts and the hour each starts at, in clock order; each
# runs until the next one starts, and night until morning.
DAY_PART_STARTS = {"morning": 5, "afternoon": 12, "evening": 17, "night": 22}
_MORNING, _AFTERNOON, _EVENING, _NIGHT = (
    hour * 3600 for hour in DAY_PART_STARTS.values())


# The text `datetime.fromisoformat` reads on Python 3.10, the oldest
# supported: YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]], `*`
# any one character. Python 3.11 reads more (`20140221`, `Z`, week dates,
# fractions of any length), so texts outside it are refused on every version
# and each interpreter keeps the same rows.
_ISO_TIMESTAMP = re.compile(
    r"\d{4}-\d\d-\d\d(?:.\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?"
    r"(?:[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?", re.ASCII | re.DOTALL)


def parse_timestamp(text: str) -> datetime:
    """Parse a naive local timestamp; sub-second parts are truncated."""
    stripped = text.strip()
    # `YYYY-MM-DD*HH:MM:SS` skips the pattern: a 19-character text with these
    # separators that `fromisoformat` reads has digits everywhere else.
    if (not (len(stripped) == 19 and stripped[4] == stripped[7] == "-"
             and stripped[13] == stripped[16] == ":")
            and _ISO_TIMESTAMP.fullmatch(stripped) is None):
        raise TimestampError(f"unparseable timestamp: {text!r}")
    try:
        ts = datetime.fromisoformat(stripped)
    except ValueError:
        raise TimestampError(f"unparseable timestamp: {text!r}") from None
    if ts.tzinfo is not None:
        raise TimestampError(
            f"timestamp carries a UTC offset, which belongs in time_zone: {text!r}")
    return ts if ts.microsecond == 0 else ts.replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    """The inverse of `parse_timestamp` on a naive timestamp:
    `YYYY-MM-DD HH:MM:SS`, sub-seconds dropped."""
    return ts.isoformat(" ", "seconds")


def _day_part(seconds: int) -> str:
    if _MORNING <= seconds < _AFTERNOON:
        return "morning"
    if _AFTERNOON <= seconds < _EVENING:
        return "afternoon"
    if _EVENING <= seconds < _NIGHT:
        return "evening"
    return "night"


class TimeFeatures(NamedTuple):
    year: int
    month: int
    day_of_year: int
    seconds_of_day: int
    category: str


def decompose_time(ts: datetime) -> TimeFeatures:
    """Split a local timestamp into calendar/clock features."""
    t = ts.timetuple()
    seconds = t.tm_hour * 3600 + t.tm_min * 60 + t.tm_sec
    return TimeFeatures(t.tm_year, t.tm_mon, t.tm_yday, seconds, _day_part(seconds))


def epoch_seconds(ts: datetime, tz_offset_hours: float | None) -> float:
    """Seconds since 1970-01-01 UTC; a missing offset is taken as UTC."""
    offset = tz_offset_hours if tz_offset_hours is not None else 0.0
    return (ts - _EPOCH).total_seconds() - offset * 3600.0


@dataclass(frozen=True)
class ObservationRecord:
    """One observation row; None marks a missing value."""

    id: str
    time: datetime | None
    time_zone: float | None
    country: str | None
    latitude: float | None
    longitude: float | None
    elevation_m: float | None
    sensor_type: str | None
    sensor_reading: float | None
    clouds: str | None
    constellation: str | None
    comment_1: str | None
    comment_2: str | None
    limiting_magnitude: float | None
    # Set by join_population; population_matched is False when the value is
    # the global median fallback.
    population: float | None = None
    population_matched: bool | None = None


_RECORD_FIELDS = tuple(f.name for f in fields(ObservationRecord))
# The fields a data row holds, in _RECORD_FIELDS order.
_PARSED_FIELDS = tuple(_COLUMN_TO_ATTR[c] for c in OBSERVATION_COLUMNS)


# `derived_columns`: the numeric columns by name, and each row's day part.
DerivedColumns = tuple[dict[str, tuple[float | None, ...]],
                       tuple[str | None, ...]]


@dataclass(frozen=True)
class RowDiagnostic:
    line: int
    row_id: str
    message: str


class ObservationTable:
    """Immutable table of observations with unique ids, stored by column:
    one tuple per ObservationRecord field, row-aligned. Records are built
    only when asked for (`records`, iteration, `table[i]`)."""

    def __init__(self, records: Iterable[ObservationRecord]):
        rows = tuple(records)
        self._columns = {name: tuple(map(attrgetter(name), rows))
                         for name in _RECORD_FIELDS}
        self._view: ColumnView | None = None
        self._derived: DerivedColumns | None = None
        seen: set[str] = set()
        for row_id in self._columns["id"]:
            if row_id in seen:
                raise DuplicateKeyError(f"duplicate id: {row_id!r}")
            seen.add(row_id)

    @classmethod
    def _from_columns(cls, columns: dict[str, tuple],
                      view: ColumnView | None = None) -> "ObservationTable":
        """A table over `columns` (every _RECORD_FIELDS name, in order), whose
        ids the caller has already checked to be unique."""
        table = cls.__new__(cls)
        table._columns = columns
        table._view = view
        table._derived = None
        return table

    def __len__(self) -> int:
        return len(self._columns["id"])

    def __iter__(self) -> Iterator[ObservationRecord]:
        return map(ObservationRecord, *self._columns.values())

    def __getitem__(self, i: int) -> ObservationRecord:
        return ObservationRecord(*(column[i] for column in self._columns.values()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObservationTable) and self._columns == other._columns

    @property
    def records(self) -> tuple[ObservationRecord, ...]:
        return tuple(self)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._columns["id"]

    def has_population(self) -> bool:
        return any(value is not None for value in self._columns["population"])

    @property
    def derived(self) -> DerivedColumns:
        """`derived_columns` of this table, built on first use and kept
        (read-only, like the columns): `eda` reads its numeric columns and
        its day parts from one pass."""
        if self._derived is None:
            self._derived = derived_columns(self._columns)
        return self._derived

    @property
    def view(self) -> ColumnView:
        """The column view, derived on first use and kept: the columns
        never change. Its numeric columns and day parts are those of
        `derived_columns`, as numpy arrays."""
        if self._view is None:
            from .columnview import derive_view
            self._view = derive_view(self._columns)
        return self._view

    def subset(self, rows: np.ndarray) -> "ObservationTable":
        """The rows where the boolean mask `rows` is set, in order. Their
        view is sliced from this table's, not derived again."""
        return ObservationTable._from_columns(
            {name: tuple(compress(column, rows))
             for name, column in self._columns.items()},
            self.view.subset(rows))

    def numeric_column(self, field: str) -> np.ndarray:
        """Field values as float64, NaN where missing (read-only)."""
        _check_numeric(field)
        return self.view.numeric[field]


def _check_numeric(field: str) -> None:
    if field not in NUMERIC_FIELDS and field != "population":
        raise UnknownFieldError(f"not a numeric field: {field!r}")


@contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """A new file beside `path`, moved over it when the block ends cleanly,
    so a reader finds the whole old file or the whole new one; when the
    block raises, the new file is removed and `path` is left as it was.
    A process killed inside the block leaves the new file behind
    (`unfinished_files`)."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as stream:
            yield stream
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def unfinished_files(directory: Path, pid: int) -> list[Path]:
    """The new files that process `pid` left in `directory` when it was
    killed before `_replacing` moved them into place. The CLI removes them
    when it takes over an output-directory lock that names `pid` but that
    no process holds: `pid` died holding it, so it will not finish them."""
    return sorted(directory.glob(f".*.{pid}.tmp"))


def open_text(path: str | Path, mode: str):
    """The utf-8 text file at `path`, opened with newline="" so no line
    ending is translated, as a context manager. Mode "w" writes through a
    temporary file that replaces `path` whole (`_replacing`)."""
    if mode == "w":
        return _replacing(Path(path))
    return open(path, mode, encoding="utf-8", newline="")


def write_rows(dest: str | Path, header: Sequence[str],
               rows: Iterable[Sequence[object]]) -> None:
    """Write `header` and then each of `rows` as one CSV artifact in the
    package's dialect: utf-8, lines ended by "\\n". The file is replaced
    whole (`open_text`), so a failure while `rows` is consumed leaves it as
    it was.

    This is the one place a cell is formatted: a Python float is written as
    its repr, the shortest text that reads back to the same float; None is
    written as an empty cell; any other value (a str, an int) as its str.
    Callers pass Python floats, as `ndarray.tolist()` gives them, not
    numpy scalars. Float matrices take the matrix path, `write_coded_rows`,
    which writes the same bytes and formats each distinct value once."""
    with open_text(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_coded_rows(dest: str | Path, header: Sequence[str],
                     labels: Iterable[Sequence[object]],
                     values: Sequence[float],
                     codes: Iterable[Sequence[int]]) -> None:
    """The matrix path of `write_rows`: row i is `labels[i]` followed by
    `values[c]` for each index c of `codes[i]`, and the file holds exactly
    the bytes `write_rows` writes for those rows. Every row of `codes`
    holds at least one index (`metrics.write_matrix` sends a matrix without
    columns to `write_rows`), and is read when its line is written.

    Each value is formatted once, as its str (a float's str is its repr),
    and a row's floats are joined directly: no float's text needs quoting.
    The label cells still go through the csv writer, each row with an
    empty cell appended, so its line ends in the delimiter that precedes
    the floats."""
    labels = list(labels)
    cells = list(map(str, values))
    prefixes: list[str] = []
    csv.writer(_Lines(prefixes), lineterminator="\n").writerows(
        [*label, ""] for label in labels)
    with open_text(dest, "w") as stream:
        csv.writer(stream, lineterminator="\n").writerow(header)
        stream.writelines(
            (prefix[:-1] if label else "")
            + ",".join(map(cells.__getitem__, row)) + "\n"
            for label, prefix, row in zip(labels, prefixes, codes))


class _Lines:
    """A csv writer's stream that keeps each line it is given in `lines`."""

    def __init__(self, lines: list[str]):
        self.write = lines.append


@contextmanager
def csv_reader(source: str | Path) -> Iterator[Any]:
    """A csv reader over the utf-8 file at `source`; see write_rows."""
    with open_text(source, "r") as stream:
        yield csv.reader(stream)


def read_rows(source: str | Path, header: Sequence[str],
              parse: Callable[[list[str]], Any],
              leading: bool = False) -> tuple[list[str], list[Any]]:
    """Read back a CSV artifact: its header and parse(row) for each row.

    The header must equal `header`, or with `leading` begin with it (for
    artifacts with one column per class or fold). A row without as many
    fields as the file's header, or one whose fields `parse` cannot
    convert (a ValueError), raises SchemaError naming the file and line.
    """
    expected = list(header)
    with csv_reader(source) as reader:
        found = next(reader, None)
        if found is None or (found[:len(expected)] if leading
                             else found) != expected:
            raise SchemaError(f"{source}: expected a header "
                              f"{'beginning' if leading else 'equal to'} "
                              f"{','.join(expected)}")
        def error(message: str) -> SchemaError:
            return SchemaError(f"{source}, line {reader.line_num}: {message}")

        parsed = []
        for row in reader:
            if len(row) != len(found):
                raise error(f"expected {len(found)} fields, got {len(row)}")
            try:
                parsed.append(parse(row))
            except ValueError as exc:
                raise error(str(exc)) from None
    return found, parsed


# Rows parsed at once: bounds the raw cells held in memory.
_BLOCK_ROWS = 1024


def _read_block(reader: Iterator[list[str]]) -> tuple[list[list[str]],
                                                      Exception | None]:
    """Up to _BLOCK_ROWS rows of `reader`, and the error that ended the
    read early, if any; the caller parses the rows before it first, so a
    strict parse raises a bad row's error before a later read error."""
    rows: list[list[str]] = []
    try:
        for row in islice(reader, _BLOCK_ROWS):
            rows.append(row)
    except (csv.Error, OSError, ValueError) as exc:
        return rows, exc
    return rows, None


def _parse_floats(cells: Sequence[str], field: str, ids: Sequence[str],
                  errors: dict[int, str]) -> list[float | None]:
    """The floats of one numeric column, None where a cell is empty; each
    cell that is not a finite number gets a message in `errors` (keyed by
    its index) unless an earlier check already gave it one."""
    try:
        values = [float(cell) if cell else None for cell in cells]
    except ValueError:
        values = []
        for j, cell in enumerate(cells):
            try:
                values.append(float(cell) if cell else None)
            except ValueError:
                values.append(None)
                errors.setdefault(
                    j, f"row {ids[j]!r}: {field} is not numeric: {cell!r}")
    # filter(None, ...) drops None and zeros, and zeros are finite
    if not all(map(math.isfinite, filter(None, values))):
        for j, value in enumerate(values):
            if value is not None and not math.isfinite(value):
                errors.setdefault(
                    j, f"row {ids[j]!r}: {field} is not finite: {cells[j]!r}")
    return values


def _parse_times(cells: Sequence[str], ids: Sequence[str],
                 errors: dict[int, str]) -> list[datetime | None]:
    """`_parse_floats` for the time column, through `parse_timestamp`."""
    try:
        return [parse_timestamp(cell) if cell else None for cell in cells]
    except TimestampError:
        pass
    values: list[datetime | None] = []
    for j, cell in enumerate(cells):
        try:
            values.append(parse_timestamp(cell) if cell else None)
        except TimestampError as exc:
            values.append(None)
            errors.setdefault(j, f"row {ids[j]!r}: {exc}")
    return values


def _check_range(values: Sequence[float | None], field: str, low: float,
                 high: float, ids: Sequence[str], errors: dict[int, str]) -> None:
    """A message in `errors` for each value outside [low, high]."""
    for j, value in enumerate(values):
        if value is not None and not low <= value <= high:
            errors.setdefault(j, f"row {ids[j]!r}: {field} out of range "
                                 f"[{low:g}, {high:g}]: {value}")


def _parse_block(rows: list[list[str]], first_line: int,
                 positions: Sequence[int], seen_ids: set[str],
                 ) -> tuple[list[Sequence[object]], list[tuple[int, str, type, str]]]:
    """Parse one block of data rows, the first on line `first_line`.

    Returns the kept rows' values, one sequence per _PARSED_FIELDS field,
    and (line, row id, error type, message) for each dropped row, in line
    order. Each row's message is the first check it fails, in this order:
    cell count, empty id, an id among `seen_ids` or kept earlier in the
    block, each numeric field in NUMERIC_FIELDS order, the timestamp, the
    latitude range, the longitude range. Kept ids are added to `seen_ids`.
    """
    width = len(positions)
    problems: dict[int, tuple[str, type, str]] = {}
    live = range(len(rows))
    if set(map(len, rows)) - {width}:
        for offset, row in enumerate(rows):
            if len(row) != width:
                problems[offset] = ("", RowError,
                                    f"line {first_line + offset}: expected "
                                    f"{width} cells, got {len(row)}")
        live = [offset for offset in live if offset not in problems]
    # the columns of the live rows, in header order
    cells = list(zip(*map(rows.__getitem__, live))) or [()] * width
    ids = cells[positions[0]]
    if "" in ids:
        present = [row_id != "" for row_id in ids]
        for offset in compress(live, map(not_, present)):
            problems[offset] = ("", RowError,
                                f"line {first_line + offset}: empty id")
        live = list(compress(live, present))
        cells = [tuple(compress(column, present)) for column in cells]
        ids = cells[positions[0]]

    by_field = dict(zip(_PARSED_FIELDS, map(cells.__getitem__, positions)))
    errors: dict[int, str] = {}
    values = {field: _parse_floats(by_field[field], field, ids, errors)
              for field in NUMERIC_FIELDS}
    values["time"] = _parse_times(by_field["time"], ids, errors)
    _check_range(values["latitude"], "latitude", -90.0, 90.0, ids, errors)
    _check_range(values["longitude"], "longitude", -180.0, 180.0, ids, errors)
    for field in TEXT_FIELDS:
        values[field] = [cell or None for cell in by_field[field]]
    values["id"] = ids

    fresh = set(ids)
    if not errors and len(fresh) == len(ids) and seen_ids.isdisjoint(fresh):
        seen_ids |= fresh
        kept = [values[field] for field in _PARSED_FIELDS]
    else:
        keep = []
        for j, row_id in enumerate(ids):
            if row_id in seen_ids:
                problems[live[j]] = (row_id, DuplicateKeyError,
                                     f"duplicate id: {row_id!r} "
                                     f"(line {first_line + live[j]})")
            elif j in errors:
                problems[live[j]] = (row_id, RowError, errors[j])
            else:
                seen_ids.add(row_id)
                keep.append(j)
        kept = [[column[j] for j in keep]
                for column in map(values.__getitem__, _PARSED_FIELDS)]
    return kept, [(first_line + offset, *problems[offset])
                  for offset in sorted(problems)]


def parse_observations(
    source: str | Path,
    strictness: str = "lenient",
) -> tuple[ObservationTable, list[RowDiagnostic]]:
    """Parse the observation CSV.

    Header must name exactly the canonical columns, in any order. Empty
    cells become missing values. Rows failing validation abort the parse in
    strict mode and are dropped with a diagnostic in lenient mode; a
    repeated id counts as such a row, so the first occurrence is kept.

    The rows are parsed in blocks of at most _BLOCK_ROWS (`_parse_block`):
    cell counts, ids and duplicates row by row, then each numeric and time
    column with one comprehension, so a bad cell is found where its column
    is converted. Each dropped row's diagnostic is the one a row-by-row
    parse gives, with the same line number, and strict mode raises the
    first bad row's error, so blocks change nothing but the cost.
    """
    if strictness not in ("strict", "lenient"):
        raise ParameterError(f"strictness must be 'strict' or 'lenient', got {strictness!r}")
    with csv_reader(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: no header row") from None
        seen_cols = set()
        for col in header:
            if col not in _COLUMN_TO_ATTR:
                raise SchemaError(f"unexpected column: {col!r}")
            if col in seen_cols:
                raise SchemaError(f"duplicate column: {col!r}")
            seen_cols.add(col)
        for col in OBSERVATION_COLUMNS:
            if col not in seen_cols:
                raise SchemaError(f"missing column: {col!r}")
        positions = [header.index(c) for c in OBSERVATION_COLUMNS]

        columns: list[list[object]] = [[] for _ in _PARSED_FIELDS]
        diagnostics: list[RowDiagnostic] = []
        seen_ids: set[str] = set()
        line = 2
        while True:
            rows, failure = _read_block(reader)
            kept, problems = _parse_block(rows, line, positions, seen_ids)
            if problems and strictness == "strict":
                _, _, error, message = problems[0]
                raise error(message)
            diagnostics += [RowDiagnostic(line_no, row_id, message)
                            for line_no, row_id, _, message in problems]
            for column, values in zip(columns, kept):
                column += values
            if failure is not None:
                raise failure
            if len(rows) < _BLOCK_ROWS:
                break
            line += len(rows)
    unjoined = (None,) * len(seen_ids)
    table = ObservationTable._from_columns(
        {**dict(zip(_PARSED_FIELDS, map(tuple, columns))),
         "population": unjoined, "population_matched": unjoined})
    return table, diagnostics


def write_observations(table: ObservationTable, dest: str | Path) -> None:
    """Write the canonical 14-column CSV; missing values become empty cells."""
    columns = {**table._columns, "time": [
        None if ts is None else format_timestamp(ts)
        for ts in table._columns["time"]]}
    write_rows(dest, OBSERVATION_COLUMNS,
               zip(*(columns[_COLUMN_TO_ATTR[c]] for c in OBSERVATION_COLUMNS)))


@dataclass(frozen=True)
class PopulationRecord:
    country: str
    year: int
    population: int


class PopulationTable:
    """Long-format population records keyed by (country, year)."""

    def __init__(self, records: Iterable[PopulationRecord]):
        self._records = tuple(records)
        lookup: dict[tuple[str, int], int] = {}
        for rec in self._records:
            key = (rec.country, rec.year)
            if key in lookup:
                raise DuplicateKeyError(f"duplicate (country, year): {key!r}")
            if rec.population < 0:
                raise ParseError(f"negative population for {key!r}")
            lookup[key] = rec.population
        self._lookup = lookup

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PopulationRecord]:
        return iter(self._records)

    def get(self, country: str, year: int) -> int | None:
        return self._lookup.get((country, year))

    def median_population(self) -> float:
        """Median over all (country, year) pairs; 0.0 for an empty table."""
        if not self._records:
            return 0.0
        ranked = sorted(rec.population for rec in self._records)
        mid = len(ranked) // 2
        if len(ranked) % 2:
            return float(ranked[mid])
        return (ranked[mid - 1] + ranked[mid]) / 2


def parse_population(source: str | Path) -> PopulationTable:
    """Parse the wide-format census CSV into long-format records.

    Requires a `Country Name` column and one column per year 2006-2020;
    other columns are ignored. Blank cells are skipped.
    """
    with csv_reader(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: no header row") from None
        if "Country Name" not in header:
            raise SchemaError("missing column: 'Country Name'")
        year_pos: dict[int, int] = {}
        for year in POPULATION_YEARS:
            if str(year) not in header:
                raise SchemaError(f"missing column: {str(year)!r}")
            year_pos[year] = header.index(str(year))
        country_pos = header.index("Country Name")

        records: list[PopulationRecord] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            country = row[country_pos]
            if country == "":
                raise ParseError(f"line {line_no}: empty country name")
            for year, pos in year_pos.items():
                cell = row[pos]
                if cell == "":
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"unparseable population for ({country!r}, {year}): {cell!r}") from None
                if not math.isfinite(value) or value < 0:
                    raise ParseError(
                        f"invalid population for ({country!r}, {year}): {cell!r}")
                records.append(PopulationRecord(country, year, int(value)))
        return PopulationTable(records)


def write_population(table: PopulationTable, dest: str | Path) -> None:
    """Write population records in long format (country, year, population)."""
    write_rows(dest, POPULATION_LONG_HEADER,
               ([rec.country, rec.year, rec.population] for rec in table))


def read_population_long(source: str | Path) -> PopulationTable:
    """Read back the long format produced by write_population."""
    _, records = read_rows(
        source, POPULATION_LONG_HEADER,
        lambda row: PopulationRecord(row[0], int(row[1]), int(row[2])))
    return PopulationTable(records)


def join_population(obs: ObservationTable, pop: PopulationTable) -> ObservationTable:
    """Attach population for (country, observation year) to every row.

    Unmatched rows receive the median population over all (country, year)
    pairs and are flagged as fallback. Joining an already-joined table
    recomputes the field, so the operation is idempotent.
    """
    fallback = pop.median_population()
    found = [None if country is None or time is None else pop.get(country, time.year)
             for country, time in zip(obs._columns["country"], obs._columns["time"])]
    columns = dict(obs._columns)
    columns["population"] = tuple(fallback if value is None else float(value)
                                  for value in found)
    columns["population_matched"] = tuple(value is not None for value in found)
    return ObservationTable._from_columns(columns)


def missingness_report(table: ObservationTable) -> list[tuple[str, int, float]]:
    """Exact missing count per field, as (field, missing_count,
    missing_fraction) rows in column order, with population last once the
    table is joined; each fraction is count/total."""
    total = len(table)
    if total == 0:
        raise EmptyInputError("missingness report requires a nonempty table")
    names = list(_COLUMN_TO_ATTR.values())
    if table.has_population():
        names.append("population")
    counts = {field: table._columns[field].count(None) for field in names}
    return [(field, count, count / total) for field, count in counts.items()]


def category_distribution(table: ObservationTable,
                          field: str) -> list[tuple[str, int, float]]:
    """(category, count, fraction) rows over the present values of `field`,
    counts descending and ties broken lexicographically; each fraction is
    count/present."""
    if field not in CATEGORICAL_REPORT_FIELDS:
        raise UnknownFieldError(
            f"field {field!r} is not categorical; expected one of {CATEGORICAL_REPORT_FIELDS}")
    values = [value for value in (table.derived[1] if field == "time_of_day_category"
                                  else table._columns[field])
              if value is not None]
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    total = len(values)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cat, n, n / total) for cat, n in ordered]


# Runs of at most this many values are summed with eight running sums;
# longer ones are split in two (numpy's PW_BLOCKSIZE).
_PAIRWISE_BLOCK = 128


def _pairwise(values: Sequence[float], start: int, stop: int) -> float:
    n = stop - start
    if n < 8:
        return reduce(add, values[start:stop], 0.0)
    if n <= _PAIRWISE_BLOCK:
        tail = stop - n % 8
        r = [reduce(add, values[start + lane:tail:8]) for lane in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[tail:stop], total)
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, start + half) + _pairwise(values, start + half, stop)


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of `values` in the order `np.add.reduce` takes on a
    contiguous float64 array, so the two are the same float: fewer than 8
    values are added in sequence to 0.0; up to 128 go into eight running
    sums (value i into sum i % 8), which are added pairwise, and then the
    values past the last multiple of 8 in sequence; a longer run is split
    in two at a multiple of 8 below its middle and each half summed so."""
    return _pairwise(values, 0, len(values))


def _mean(values: Sequence[float]) -> float:
    return pairwise_sum(values) / len(values)


def derived_columns(columns: dict[str, tuple]) -> DerivedColumns:
    """The numeric columns of `derived_numeric_columns` and each row's day
    part (None where the time is missing), from a table's columns. Each
    timestamp goes through `decompose_time` and `epoch_seconds` once."""
    numeric = {name: columns[name] for name in NUMERIC_FIELDS + ("population",)}
    parts = [None if ts is None else decompose_time(ts) for ts in columns["time"]]
    for name in TIME_PARTS[:-1]:  # the TimeFeatures fields; epoch_time is last
        numeric[name] = tuple(None if part is None else float(getattr(part, name))
                              for part in parts)
    numeric["epoch_time"] = tuple(
        None if ts is None else epoch_seconds(ts, zone)
        for ts, zone in zip(columns["time"], columns["time_zone"]))
    return numeric, tuple(None if part is None else part.category for part in parts)


def derived_numeric_columns(
        table: ObservationTable) -> dict[str, tuple[float | None, ...]]:
    """The raw numeric fields, population and TIME_PARTS by name, as
    row-aligned tuples of floats with None where a value is missing. The
    time parts come from `decompose_time` and `epoch_seconds`, and are
    missing where the time is; the other columns are the table's own."""
    return dict(table.derived[0])


def pearson(x: Sequence[float | None], y: Sequence[float | None]) -> float:
    """Product-moment correlation over complete pairs, those where neither
    value is None or NaN. It is the float that numpy gives for
    `mean(dx * dy) / (sqrt(mean(dx * dx)) * sqrt(mean(dy * dy)))` with
    `dx = x - mean(x)`, every mean a `pairwise_sum` divided by the count.
    Fewer than two complete pairs, or a column whose complete values are
    all equal, raise UndefinedCorrelationError."""
    if len(x) != len(y):
        raise ParameterError(f"columns must be 1-D and equal length, got "
                             f"{len(x)} vs {len(y)} values")
    # NaN is the one value unequal to itself
    pairs = [(a, b) for a, b in zip(x, y)
             if a is not None and b is not None and a == a and b == b]
    if len(pairs) < 2:
        raise UndefinedCorrelationError(
            f"need >= 2 complete pairs, found {len(pairs)}")
    xs, ys = (list(map(float, column)) for column in zip(*pairs))
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise UndefinedCorrelationError("zero variance in an input column")
    mean_x, mean_y = _mean(xs), _mean(ys)
    dx = [value - mean_x for value in xs]
    dy = [value - mean_y for value in ys]
    sx = math.sqrt(_mean(list(map(mul, dx, dx))))
    sy = math.sqrt(_mean(list(map(mul, dy, dy))))
    if sx == 0.0 or sy == 0.0:  # the deviations underflow
        raise UndefinedCorrelationError("zero variance in an input column")
    return _mean(list(map(mul, dx, dy))) / (sx * sy)


def annual_trend(table: ObservationTable, field: str) -> list[tuple[int, float]]:
    """(year, mean) rows, years ascending: the mean of a numeric field per
    observation year, missing values dropped; years with no present values
    are absent. Each year's values are summed in row order."""
    _check_numeric(field)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for value, ts in zip(table._columns[field], table._columns["time"]):
        if value is not None and value == value and ts is not None:
            sums[ts.year] = sums.get(ts.year, 0.0) + value
            counts[ts.year] = counts.get(ts.year, 0) + 1
    return [(year, sums[year] / counts[year]) for year in sorted(sums)]
