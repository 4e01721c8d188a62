"""Observation and population tables.

CSV parsing with per-cell missingness, range validation in strict or lenient
mode, the population join with a median fallback, the CSV artifact layer
every stage writes and reads through, and the descriptive reports (missing
counts per field, category shares), which return plain rows whose file
layout the command layer owns. Tables are immutable after construction.

An observation table stores its rows by column, one tuple per
ObservationRecord field. Parsing appends each valid row's values to the
columns, the join adds the population columns and shares the others, and
the reports and writer read the columns; records are built only when a
caller asks for them.

This module is pure Python. A table's column view (`ObservationTable.view`:
every label-free column as a numpy array, derived once) comes from
`columnview`, imported on first use, so parsing and writing a table loads
no numpy.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import compress
from datetime import datetime
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateKeyError,
    EmptyInputError,
    ParameterError,
    ParseError,
    RowError,
    SchemaError,
    TimestampError,
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

# Local-time day-part boundaries, in seconds after midnight.
_MORNING = 5 * 3600
_AFTERNOON = 12 * 3600
_EVENING = 17 * 3600
_NIGHT = 22 * 3600


def parse_timestamp(text: str) -> datetime:
    """Parse a naive local timestamp; sub-second parts are truncated."""
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise TimestampError(f"unparseable timestamp: {text!r}") from None
    if ts.tzinfo is not None:
        raise TimestampError(
            f"timestamp carries a UTC offset, which belongs in time_zone: {text!r}")
    return ts.replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    """The inverse of `parse_timestamp`: `YYYY-MM-DD HH:MM:SS`, with the
    year zero-padded to four digits (`%Y` leaves years below 1000 short)."""
    return f"{ts.year:04d}-{ts:%m-%d %H:%M:%S}"


def time_of_day_category(ts: datetime) -> str:
    """Day-part label from local time: morning/afternoon/evening/night."""
    s = ts.hour * 3600 + ts.minute * 60 + ts.second
    if _MORNING <= s < _AFTERNOON:
        return "morning"
    if _AFTERNOON <= s < _EVENING:
        return "afternoon"
    if _EVENING <= s < _NIGHT:
        return "evening"
    return "night"


@dataclass(frozen=True)
class TimeFeatures:
    year: int
    month: int
    day_of_year: int
    seconds_of_day: int
    category: str


def decompose_time(ts: datetime) -> TimeFeatures:
    """Split a local timestamp into calendar/clock features."""
    seconds = ts.hour * 3600 + ts.minute * 60 + ts.second
    return TimeFeatures(
        year=ts.year,
        month=ts.month,
        day_of_year=ts.timetuple().tm_yday,
        seconds_of_day=seconds,
        category=time_of_day_category(ts),
    )


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
    def view(self) -> ColumnView:
        """The column view, derived on first use and kept: the columns
        never change."""
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
        if field not in NUMERIC_FIELDS and field != "population":
            raise UnknownFieldError(f"not a numeric field: {field!r}")
        return self.view.numeric[field]


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
    numpy scalars."""
    with open_text(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def _parse_float(cell: str, field: str, row_id: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise RowError(f"row {row_id!r}: {field} is not numeric: {cell!r}") from None
    if not math.isfinite(value):
        raise RowError(f"row {row_id!r}: {field} is not finite: {cell!r}")
    return value


# Positions in a row's cells once they are put in _RECORD_FIELDS order.
_NUMERIC_SLOTS = tuple((_RECORD_FIELDS.index(f), f) for f in NUMERIC_FIELDS)
_TEXT_SLOTS = tuple(_RECORD_FIELDS.index(f) for f in TEXT_FIELDS)
_TIME_SLOT = _RECORD_FIELDS.index("time")
_LATITUDE_SLOT = _RECORD_FIELDS.index("latitude")
_LONGITUDE_SLOT = _RECORD_FIELDS.index("longitude")


def _parse_cells(row_id: str, cells: Sequence[str]) -> list[object]:
    """The values of one row's cells, given in _RECORD_FIELDS order; raises
    RowError naming the row for the first cell that fails validation."""
    values: list[object] = list(cells)
    for slot, field in _NUMERIC_SLOTS:
        cell = cells[slot]
        values[slot] = _parse_float(cell, field, row_id) if cell != "" else None
    cell = cells[_TIME_SLOT]
    if cell != "":
        try:
            values[_TIME_SLOT] = parse_timestamp(cell)
        except TimestampError as exc:
            raise RowError(f"row {row_id!r}: {exc}") from None
    else:
        values[_TIME_SLOT] = None
    for slot in _TEXT_SLOTS:
        if cells[slot] == "":
            values[slot] = None

    lat = values[_LATITUDE_SLOT]
    if lat is not None and not -90.0 <= lat <= 90.0:
        raise RowError(f"row {row_id!r}: latitude out of range [-90, 90]: {lat}")
    lon = values[_LONGITUDE_SLOT]
    if lon is not None and not -180.0 <= lon <= 180.0:
        raise RowError(f"row {row_id!r}: longitude out of range [-180, 180]: {lon}")
    return values


def parse_observations(
    source: str | Path,
    strictness: str = "lenient",
) -> tuple[ObservationTable, list[RowDiagnostic]]:
    """Parse the observation CSV.

    Header must name exactly the canonical columns, in any order. Empty
    cells become missing values. Rows failing validation abort the parse in
    strict mode and are dropped with a diagnostic in lenient mode; a
    repeated id counts as such a row, so the first occurrence is kept.
    Each kept row's values are appended to the table's columns.
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
        # OBSERVATION_COLUMNS is in _RECORD_FIELDS order
        in_field_order = itemgetter(*(header.index(c) for c in OBSERVATION_COLUMNS))
        id_pos = header.index("id")

        columns: list[list[object]] = [[] for _ in OBSERVATION_COLUMNS]
        diagnostics: list[RowDiagnostic] = []
        seen_ids: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            row_id = ""
            try:
                if len(row) != len(header):
                    raise RowError(f"line {line_no}: expected {len(header)} "
                                   f"cells, got {len(row)}")
                row_id = row[id_pos]
                if row_id == "":
                    raise RowError(f"line {line_no}: empty id")
                if row_id in seen_ids:
                    raise DuplicateKeyError(
                        f"duplicate id: {row_id!r} (line {line_no})")
                values = _parse_cells(row_id, in_field_order(row))
            except (RowError, DuplicateKeyError) as exc:
                if strictness == "strict":
                    raise
                diagnostics.append(RowDiagnostic(line_no, row_id, str(exc)))
                continue
            seen_ids.add(row_id)
            for column, value in zip(columns, values):
                column.append(value)
    unjoined = (None,) * len(seen_ids)
    table = ObservationTable._from_columns(
        {**dict(zip(_RECORD_FIELDS, map(tuple, columns))),
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
    values = table.view.categorical[field][~table.view.missing[field]]
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    total = len(values)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(cat, n, n / total) for cat, n in ordered]
