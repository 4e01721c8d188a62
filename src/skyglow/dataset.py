"""Observation and population tables.

CSV parsing with per-cell missingness, range validation in strict or lenient
mode, the population join with a median fallback, and the descriptive
reports (missingness counts, category frequency tables). Tables are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

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

# Canonical observation column order; `type` maps to the `sensor_type` attribute.
OBSERVATION_COLUMNS = (
    "id", "time", "time_zone", "country", "latitude", "longitude",
    "elevation_m", "type", "sensor_reading", "clouds", "constellation",
    "comment_1", "comment_2", "limiting_magnitude",
)
_COLUMN_TO_ATTR = {c: ("sensor_type" if c == "type" else c) for c in OBSERVATION_COLUMNS}
_ATTR_TO_COLUMN = {a: c for c, a in _COLUMN_TO_ATTR.items()}

NUMERIC_FIELDS = ("time_zone", "latitude", "longitude", "elevation_m",
                  "sensor_reading", "limiting_magnitude")
TEXT_FIELDS = ("country", "sensor_type", "clouds", "constellation",
               "comment_1", "comment_2")
CATEGORICAL_REPORT_FIELDS = ("sensor_type", "clouds", "constellation",
                             "time_of_day_category")

POPULATION_YEARS = tuple(range(2006, 2021))
TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

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
    return ts.strftime(TIME_FORMAT)


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


@dataclass(frozen=True)
class RowDiagnostic:
    line: int
    row_id: str
    message: str


class ObservationTable:
    """Immutable sequence of observation records with unique ids."""

    def __init__(self, records: Iterable[ObservationRecord]):
        self._records = tuple(records)
        index: dict[str, int] = {}
        for i, rec in enumerate(self._records):
            if rec.id in index:
                raise DuplicateKeyError(f"duplicate id: {rec.id!r}")
            index[rec.id] = i
        self._index = index

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ObservationRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> ObservationRecord:
        return self._records[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObservationTable) and self._records == other._records

    @property
    def records(self) -> tuple[ObservationRecord, ...]:
        return self._records

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self._records)

    def row_of(self, record_id: str) -> int:
        return self._index[record_id]

    def has_population(self) -> bool:
        return any(r.population is not None for r in self._records)

    def numeric_column(self, field: str) -> np.ndarray:
        """Field values as float64, NaN where missing."""
        if field not in NUMERIC_FIELDS and field != "population":
            raise UnknownFieldError(f"not a numeric field: {field!r}")
        out = np.full(len(self._records), np.nan)
        for i, rec in enumerate(self._records):
            v = getattr(rec, field)
            if v is not None:
                out[i] = v
        return out

    def text_column(self, field: str) -> tuple[str | None, ...]:
        if field not in TEXT_FIELDS:
            raise UnknownFieldError(f"not a text field: {field!r}")
        return tuple(getattr(rec, field) for rec in self._records)


def _open(target: TextIO | str | Path, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="")
    return nullcontext(target)


@contextmanager
def csv_writer(dest: TextIO | str | Path) -> Iterator[Any]:
    """A csv writer in the package's CSV dialect: utf-8, lines ended by
    "\\n". A path is opened and closed here; a stream is left open."""
    with _open(dest, "w") as stream:
        yield csv.writer(stream, lineterminator="\n")


@contextmanager
def csv_reader(source: TextIO | str | Path) -> Iterator[Any]:
    """A csv reader over a utf-8 path or an open stream; see csv_writer."""
    with _open(source, "r") as stream:
        yield csv.reader(stream)


def parsed_rows(source: TextIO | str | Path, reader,
                width: int, parse: Callable[[list[str]], Any]) -> list[Any]:
    """parse(row) for each row left in `reader`, which reads `source`.

    A row without exactly `width` fields, or one whose fields `parse`
    cannot convert (a ValueError), raises SchemaError naming the file and
    line.
    """
    def error(message: str) -> SchemaError:
        name = (source if isinstance(source, (str, Path))
                else getattr(source, "name", "<stream>"))
        return SchemaError(f"{name}, line {reader.line_num}: {message}")

    parsed = []
    for row in reader:
        if len(row) != width:
            raise error(f"expected {width} fields, got {len(row)}")
        try:
            parsed.append(parse(row))
        except ValueError as exc:
            raise error(str(exc)) from None
    return parsed


def _parse_float(cell: str, field: str, row_id: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise RowError(f"row {row_id!r}: {field} is not numeric: {cell!r}") from None
    if not math.isfinite(value):
        raise RowError(f"row {row_id!r}: {field} is not finite: {cell!r}")
    return value


def _build_record(row_id: str, cells: dict[str, str]) -> ObservationRecord:
    values: dict[str, object] = {"id": row_id}
    for field in NUMERIC_FIELDS:
        cell = cells[field]
        values[field] = _parse_float(cell, field, row_id) if cell != "" else None
    cell = cells["time"]
    if cell != "":
        try:
            values["time"] = parse_timestamp(cell)
        except TimestampError as exc:
            raise RowError(f"row {row_id!r}: {exc}") from None
    else:
        values["time"] = None
    for field in TEXT_FIELDS:
        cell = cells[field]
        values[field] = cell if cell != "" else None

    lat = values["latitude"]
    if lat is not None and not -90.0 <= lat <= 90.0:
        raise RowError(f"row {row_id!r}: latitude out of range [-90, 90]: {lat}")
    lon = values["longitude"]
    if lon is not None and not -180.0 <= lon <= 180.0:
        raise RowError(f"row {row_id!r}: longitude out of range [-180, 180]: {lon}")
    return ObservationRecord(**values)  # type: ignore[arg-type]


def parse_observations(
    source: TextIO | str | Path,
    strictness: str = "lenient",
) -> tuple[ObservationTable, list[RowDiagnostic]]:
    """Parse the observation CSV.

    Header must name exactly the canonical columns, in any order. Empty
    cells become missing values. Rows failing validation abort the parse in
    strict mode and are dropped with a diagnostic in lenient mode; a
    repeated id counts as such a row, so the first occurrence is kept.
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
        attr_pos = {_COLUMN_TO_ATTR[col]: i for i, col in enumerate(header)}

        records: list[ObservationRecord] = []
        diagnostics: list[RowDiagnostic] = []
        seen_ids: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            row_id = ""
            try:
                if len(row) != len(header):
                    raise RowError(f"line {line_no}: expected {len(header)} "
                                   f"cells, got {len(row)}")
                row_id = row[attr_pos["id"]]
                if row_id == "":
                    raise RowError(f"line {line_no}: empty id")
                if row_id in seen_ids:
                    raise DuplicateKeyError(
                        f"duplicate id: {row_id!r} (line {line_no})")
                record = _build_record(
                    row_id, {attr: row[pos] for attr, pos in attr_pos.items()})
            except (RowError, DuplicateKeyError) as exc:
                if strictness == "strict":
                    raise
                diagnostics.append(RowDiagnostic(line_no, row_id, str(exc)))
                continue
            seen_ids.add(row_id)
            records.append(record)
        return ObservationTable(records), diagnostics


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, datetime):
        return format_timestamp(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_observations(table: ObservationTable, dest: TextIO | str | Path) -> None:
    """Write the canonical 14-column CSV; missing values become empty cells."""
    with csv_writer(dest) as writer:
        writer.writerow(OBSERVATION_COLUMNS)
        for rec in table:
            writer.writerow([_format_cell(getattr(rec, _COLUMN_TO_ATTR[c]))
                             for c in OBSERVATION_COLUMNS])


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

    @property
    def records(self) -> tuple[PopulationRecord, ...]:
        return self._records

    def get(self, country: str, year: int) -> int | None:
        return self._lookup.get((country, year))

    def median_population(self) -> float:
        """Median over all (country, year) pairs; 0.0 for an empty table."""
        if not self._records:
            return 0.0
        return float(median(rec.population for rec in self._records))


def parse_population(source: TextIO | str | Path) -> PopulationTable:
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


def write_population(table: PopulationTable, dest: TextIO | str | Path) -> None:
    """Write population records in long format (country, year, population)."""
    with csv_writer(dest) as writer:
        writer.writerow(["country", "year", "population"])
        for rec in table:
            writer.writerow([rec.country, rec.year, rec.population])


def read_population_long(source: TextIO | str | Path) -> PopulationTable:
    """Read back the long format produced by write_population."""
    with csv_reader(source) as reader:
        header = next(reader, None)
        if header != ["country", "year", "population"]:
            raise SchemaError("expected header 'country,year,population'")
        return PopulationTable(parsed_rows(
            source, reader, 3,
            lambda row: PopulationRecord(row[0], int(row[1]), int(row[2]))))


def join_population(obs: ObservationTable, pop: PopulationTable) -> ObservationTable:
    """Attach population for (country, observation year) to every row.

    Unmatched rows receive the median population over all (country, year)
    pairs and are flagged as fallback. Joining an already-joined table
    recomputes the field, so the operation is idempotent.
    """
    fallback = pop.median_population()
    joined = []
    for rec in obs:
        value: int | None = None
        if rec.country is not None and rec.time is not None:
            value = pop.get(rec.country, rec.time.year)
        if value is None:
            joined.append(replace(rec, population=fallback, population_matched=False))
        else:
            joined.append(replace(rec, population=float(value), population_matched=True))
    return ObservationTable(joined)


@dataclass(frozen=True)
class FieldMissingness:
    field: str
    missing_count: int
    missing_fraction: float


@dataclass(frozen=True)
class MissingnessReport:
    total_rows: int
    fields: tuple[FieldMissingness, ...]

    def fraction(self, field: str) -> float:
        for entry in self.fields:
            if entry.field == field:
                return entry.missing_fraction
        raise UnknownFieldError(f"no such field in report: {field!r}")

    def write_csv(self, dest: TextIO | str | Path) -> None:
        with csv_writer(dest) as writer:
            writer.writerow(["field", "missing_count", "missing_fraction", "total_rows"])
            for entry in self.fields:
                writer.writerow([entry.field, entry.missing_count,
                                 repr(entry.missing_fraction), self.total_rows])


_REPORT_FIELDS = ("id", "time", "time_zone", "country", "latitude", "longitude",
                  "elevation_m", "sensor_type", "sensor_reading", "clouds",
                  "constellation", "comment_1", "comment_2", "limiting_magnitude")


def missingness_report(table: ObservationTable) -> MissingnessReport:
    """Exact per-field missing counts; fractions are count/total."""
    total = len(table)
    if total == 0:
        raise EmptyInputError("missingness report requires a nonempty table")
    fields = list(_REPORT_FIELDS)
    if table.has_population():
        fields.append("population")
    entries = []
    for field in fields:
        count = sum(1 for rec in table if getattr(rec, field) is None)
        entries.append(FieldMissingness(field, count, count / total))
    return MissingnessReport(total, tuple(entries))


@dataclass(frozen=True)
class CategoryCount:
    category: str
    count: int
    fraction: float


@dataclass(frozen=True)
class FrequencyTable:
    field: str
    total_present: int
    entries: tuple[CategoryCount, ...]

    def fraction(self, category: str) -> float:
        for entry in self.entries:
            if entry.category == category:
                return entry.fraction
        raise UnknownFieldError(f"no such category in table: {category!r}")

    def write_csv(self, dest: TextIO | str | Path) -> None:
        with csv_writer(dest) as writer:
            writer.writerow(["field", "category", "count", "fraction"])
            for entry in self.entries:
                writer.writerow([self.field, entry.category, entry.count, repr(entry.fraction)])


def category_distribution(table: ObservationTable, field: str) -> FrequencyTable:
    """Counts over present values, descending; ties break lexicographically."""
    if field not in CATEGORICAL_REPORT_FIELDS:
        raise UnknownFieldError(
            f"field {field!r} is not categorical; expected one of {CATEGORICAL_REPORT_FIELDS}")
    if field == "time_of_day_category":
        values = [time_of_day_category(rec.time) for rec in table if rec.time is not None]
    else:
        values = [v for v in (getattr(rec, field) for rec in table) if v is not None]
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    total = len(values)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = tuple(CategoryCount(cat, n, n / total) for cat, n in ordered)
    return FrequencyTable(field, total, entries)
