import math
from datetime import datetime
from itertools import compress

import numpy as np
import pytest

from skyglow.dataset import (
    OBSERVATION_COLUMNS,
    ObservationTable,
    PopulationRecord,
    PopulationTable,
    category_distribution,
    decompose_time,
    epoch_seconds,
    format_timestamp,
    join_population,
    missingness_report,
    parse_observations,
    parse_population,
    parse_timestamp,
    read_population_long,
    write_observations,
    write_population,
    write_rows,
)
from skyglow.errors import (
    DuplicateKeyError,
    EmptyInputError,
    RowError,
    SchemaError,
    TimestampError,
    UnknownFieldError,
)

from helpers import grid_table, obs
from oracles import join_population_oracle

HEADER = ",".join(OBSERVATION_COLUMNS)


def _file(tmp_path, text):
    """`text` written to one input file in `tmp_path`; each call replaces
    the last one's."""
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return path


def _csv(tmp_path, *rows):
    return _file(tmp_path, "\n".join([HEADER, *rows]) + "\n")


GOOD_ROW = ("a1,2014-02-21 18:12:00,-5,Chile,-33.4,-70.6,520,GAN,,clear,"
            "Orion,dark site,no moon,5.2")


def test_parse_good_row(tmp_path):
    table, diags = parse_observations(_csv(tmp_path, GOOD_ROW), "strict")
    assert diags == []
    rec = table.records[0]
    assert rec.id == "a1"
    assert rec.time == datetime(2014, 2, 21, 18, 12)
    assert rec.time_zone == -5.0
    assert rec.sensor_type == "GAN"
    assert rec.sensor_reading is None
    assert rec.limiting_magnitude == 5.2
    assert rec.population is None


def test_header_must_match_schema(tmp_path):
    bad = _file(tmp_path, "id,when\n1,2\n")
    with pytest.raises(SchemaError):
        parse_observations(bad)


def test_missing_file_header_only_is_empty_table(tmp_path):
    table, diags = parse_observations(_csv(tmp_path))
    assert len(table) == 0 and diags == []


def test_bad_numeric_strict_vs_lenient(tmp_path):
    row = GOOD_ROW.replace("-33.4", "not-a-number")
    with pytest.raises(RowError):
        parse_observations(_csv(tmp_path, row), "strict")
    table, diags = parse_observations(
        _csv(tmp_path, row, GOOD_ROW.replace("a1", "a2")), "lenient")
    assert len(table) == 1
    assert len(diags) == 1 and "latitude" in diags[0].message


def test_bad_timestamp_reported(tmp_path):
    row = GOOD_ROW.replace("2014-02-21 18:12:00", "21/02/2014")
    table, diags = parse_observations(_csv(tmp_path, row), "lenient")
    assert len(table) == 0
    assert "timestamp" in diags[0].message.lower()


def test_duplicate_id_rejected(tmp_path):
    with pytest.raises(DuplicateKeyError):
        parse_observations(_csv(tmp_path, GOOD_ROW, GOOD_ROW), "strict")
    table, diags = parse_observations(_csv(tmp_path, GOOD_ROW, GOOD_ROW),
                                      "lenient")
    assert len(table) == 1 and len(diags) == 1


def test_missing_id_is_row_error(tmp_path):
    row = GOOD_ROW.replace("a1", "")
    _, diags = parse_observations(_csv(tmp_path, row), "lenient")
    assert len(diags) == 1


def test_wrong_cell_count_flagged_with_line_number(tmp_path):
    bad = _file(tmp_path, HEADER + "\n1,2,3\n")
    _, diags = parse_observations(bad, "lenient")
    assert diags[0].line == 2


ROW_PROBLEMS = [
    ("1,2,3", RowError, (3, "", "line 3: expected 14 cells, got 3")),
    (GOOD_ROW.replace("a1", ""), RowError, (4, "", "line 4: empty id")),
    (GOOD_ROW, DuplicateKeyError, (5, "a1", "duplicate id: 'a1' (line 5)")),
    (GOOD_ROW.replace("a1", "a2").replace("-33.4", "north"), RowError,
     (6, "a2", "row 'a2': latitude is not numeric: 'north'")),
]


def test_row_problems_pinned_in_both_modes(tmp_path):
    rows = [GOOD_ROW] + [row for row, _, _ in ROW_PROBLEMS]
    table, diags = parse_observations(_csv(tmp_path, *rows), "lenient")
    assert table.ids == ("a1",)
    assert [(d.line, d.row_id, d.message) for d in diags] == [
        expected for _, _, expected in ROW_PROBLEMS]
    # strict mode: valid padding puts each problem row on its lenient line
    for pad, (row, error, (_, _, message)) in enumerate(ROW_PROBLEMS):
        padding = [GOOD_ROW.replace("a1", f"p{i}") for i in range(pad)]
        with pytest.raises(error) as caught:
            parse_observations(_csv(tmp_path, GOOD_ROW, *padding, row),
                               "strict")
        assert type(caught.value) is error and str(caught.value) == message


def test_round_trip_preserves_values(tmp_path):
    table, _ = parse_observations(_csv(tmp_path, GOOD_ROW))
    path = tmp_path / "observations.csv"
    write_observations(table, path)
    again, _ = parse_observations(path, "strict")
    assert again.records == table.records


def test_round_trip_float_exact(tmp_path):
    rec = obs(latitude=0.1 + 0.2)  # 0.30000000000000004
    path = tmp_path / "observations.csv"
    write_observations(ObservationTable([rec]), path)
    again, _ = parse_observations(path)
    assert again.records[0].latitude == rec.latitude


def test_parse_timestamp_truncates_microseconds():
    ts = parse_timestamp("2014-02-21 18:12:00.654321")
    assert ts == datetime(2014, 2, 21, 18, 12, 0)


@pytest.mark.parametrize("text", [
    "2014-02-21 18:12:00", "2014-02-21 18:12:00.654321", "2014-02-21T18:12",
    "2014-02-21", " 0999-12-31 23:59:59.000001 ", "2014-02-21 18:12:00.000"])
def test_parse_timestamp_equals_the_truncating_replace(text):
    ts = parse_timestamp(text)
    want = datetime.fromisoformat(text.strip()).replace(microsecond=0)
    assert type(ts) is datetime and ts == want and ts.microsecond == 0
    assert (ts.fold, ts.tzinfo) == (want.fold, want.tzinfo)


@pytest.mark.parametrize("ts", [
    *(pytest.param(datetime(year, 6, 15, 21, 30), id=str(year))
      for year in (1, 999, 1000, 9999)),
    pytest.param(datetime(2014, 6, 15, 21, 30, 0, 999999), id="microsecond"),
    pytest.param(datetime(2014, 6, 15, 21, 30, fold=1), id="fold"),
    pytest.param(datetime(1, 1, 1, 0, 0, 0, 1), id="00:00:00"),
    pytest.param(datetime(9999, 12, 31, 23, 59, 59, 999999, fold=1), id="23:59:59"),
])
def test_timestamp_round_trip_pads_the_year(tmp_path, ts):
    text = format_timestamp(ts)
    # the reference formula: `%Y` leaves years below 1000 short, so the
    # year is padded on its own
    assert text == f"{ts.year:04d}-{ts:%m-%d %H:%M:%S}"
    if ts.year >= 1000:
        assert text == ts.strftime("%Y-%m-%d %H:%M:%S")
    truncated = ts.replace(microsecond=0)
    assert parse_timestamp(text) == truncated
    path = tmp_path / "observations.csv"
    write_observations(ObservationTable([obs(time=ts)]), path)
    again, diags = parse_observations(path, "strict")
    assert diags == [] and again.records[0].time == truncated


def test_parse_timestamp_rejects_timezone_aware():
    with pytest.raises(TimestampError):
        parse_timestamp("2014-02-21 18:12:00+02:00")
    with pytest.raises(TimestampError):
        parse_timestamp("garbage")


# Texts Python 3.11's `fromisoformat` reads and Python 3.10's does not;
# the last four have the canonical length, 19 characters.
@pytest.mark.parametrize("text", [
    "20140221", "2014-02-21 18:12:00.5", "2014-02-21 18:12:00.1234",
    "2014-02-21T18:12:00Z", "2014-W08-5T18:12:00", "2014-02-21 18:12+02",
    "2014W08-12:34+05:00", "2014W08-12+05:00:00"])
def test_parse_timestamp_refuses_what_python_3_10_cannot_read(text):
    with pytest.raises(TimestampError, match="^unparseable timestamp"):
        parse_timestamp(text)


def _fits_python_3_10_grammar(text):
    """The grammar `datetime.fromisoformat` documents on Python 3.10,
    YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]], spelled
    out as shapes: `d` an ASCII digit, `*` any character, `+` a sign."""
    times = ("*dd", "*dd:dd", "*dd:dd:dd", "*dd:dd:dd.ddd", "*dd:dd:dd.dddddd")
    offsets = ("", "+dd:dd", "+dd:dd:dd", "+dd:dd:dd.dddddd")
    shapes = ["dddd-dd-dd"] + [f"dddd-dd-dd{t}{o}" for t in times for o in offsets]

    def fits(shape):
        return all(
            c in "0123456789" if s == "d" else c in "+-" if s == "+" else s in ("*", c)
            for s, c in zip(shape, text))
    return any(fits(shape) for shape in shapes if len(shape) == len(text))


def test_parse_timestamp_reads_exactly_the_python_3_10_grammar():
    # every one- and two-character edit of a few valid texts, each read as
    # fromisoformat reads it when the 3.10 grammar admits it, else refused
    alphabet = "0123456789-:+.,TWZ é\x00"
    seeds = ("2014-02-21 18:12:00", "2014-02-21T18:12:00.123+02:00",
             "2014-02-21 18:12:00.123456-01:30:15.000001", "2014-02-21T18")

    def edits(text):
        for i in range(len(text) + 1):
            yield text[:i] + text[i + 1:]
            for c in alphabet:
                yield text[:i] + c + text[i + 1:]
                yield text[:i] + c + text[i:]

    texts = {edit for seed in seeds for edit in edits(seed)}
    rng = np.random.default_rng(0)
    singles = sorted(texts)
    for i in rng.choice(len(singles), 30, replace=False):
        texts.update(edits(singles[i]))
    admitted = 0
    for text in texts:
        want = None
        if _fits_python_3_10_grammar(text.strip()):
            try:
                want = datetime.fromisoformat(text.strip())
            except ValueError:
                pass
        if want is None:
            with pytest.raises(TimestampError, match="^unparseable timestamp"):
                parse_timestamp(text)
        elif want.tzinfo is not None:
            with pytest.raises(TimestampError, match="UTC offset"):
                parse_timestamp(text)
        else:
            admitted += 1
            assert parse_timestamp(text) == want.replace(microsecond=0), text
    assert admitted > 100


@pytest.mark.parametrize("hour,minute,expected", [
    (4, 59, "night"),
    (5, 0, "morning"),
    (11, 59, "morning"),
    (12, 0, "afternoon"),
    (16, 59, "afternoon"),
    (17, 0, "evening"),
    (21, 59, "evening"),
    (22, 0, "night"),
    (0, 0, "night"),
])
def test_time_of_day_boundaries(hour, minute, expected):
    assert decompose_time(datetime(2014, 1, 1, hour, minute)).category == expected


def test_numeric_column_nan_for_missing():
    table = ObservationTable([obs(id="x", sensor_reading=None),
                              obs(id="y", sensor_reading=19.5)])
    col = table.numeric_column("sensor_reading")
    assert math.isnan(col[0]) and col[1] == 19.5
    with pytest.raises(UnknownFieldError):
        table.numeric_column("no_such_field")


def test_text_column_none_for_missing(tmp_path):
    row = GOOD_ROW.replace("dark site", "").replace("a1", "r0")
    table, _ = parse_observations(_csv(tmp_path, row, GOOD_ROW), "strict")
    assert [rec.comment_1 for rec in table] == [None, "dark site"]


# --- population ---

POP_HEADER = ("Country Name,Country Code,Indicator Name,2006,2007,2008,2009,"
              "2010,2011,2012,2013,2014,2015,2016,2017,2018,2019,2020")
POP_WIDE = (
    POP_HEADER + "\n"
    'Chile,CHL,"Population, total",16,17,18,19,20,21,22,23,24,25,26,27,28,29,30\n'
    "Norway,NOR,x,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5\n")


def test_parse_population_wide(tmp_path):
    pop = parse_population(_file(tmp_path, POP_WIDE))
    assert len(pop) == 30
    assert pop.get("Chile", 2014) == 24
    assert pop.get("Norway", 2020) == 5
    assert pop.get("Atlantis", 2014) is None


def test_population_duplicate_country_year(tmp_path):
    row = "A,1,i," + ",".join(["7"] * 15)
    dup = _file(tmp_path, POP_HEADER + "\n" + row + "\n" + row + "\n")
    with pytest.raises(DuplicateKeyError):
        parse_population(dup)


def test_population_long_round_trip(tmp_path):
    pop = PopulationTable([PopulationRecord("A", 2010, 100),
                           PopulationRecord("B", 2011, 200)])
    path = tmp_path / "population_long.csv"
    write_population(pop, path)
    again = read_population_long(path)
    assert list(again) == list(pop)


def test_population_long_bad_rows_name_the_line(tmp_path):
    header = "country,year,population\n"
    with pytest.raises(SchemaError, match="line 3: invalid literal"):
        read_population_long(_file(tmp_path, header + "A,2010,100\nB,twenty,200\n"))
    with pytest.raises(SchemaError, match="line 2: expected 3 fields, got 2"):
        read_population_long(_file(tmp_path, header + "A,2010\n"))


def test_join_population_match_and_median_fallback():
    pop = PopulationTable([PopulationRecord("Chile", 2014, 100),
                           PopulationRecord("Chile", 2015, 300),
                           PopulationRecord("Peru", 2014, 900)])
    table = ObservationTable([
        obs(id="m", country="Chile", time=datetime(2014, 5, 1)),
        obs(id="u", country="Atlantis", time=datetime(2014, 5, 1)),
        obs(id="n", country=None, time=datetime(2014, 5, 1)),
    ])
    joined = join_population(table, pop)
    matched, unmatched, nocountry = joined.records
    assert matched.population == 100.0 and matched.population_matched is True
    # median of {100, 300, 900} = 300
    assert unmatched.population == 300.0 and unmatched.population_matched is False
    assert nocountry.population == 300.0 and nocountry.population_matched is False


def test_median_population_is_the_statistics_median():
    import statistics
    for pops in ([7], [5, 1], [3, 9, 4], [1, 2, 3, 10**12 + 1],
                 [2**53 + 1, 2**53 + 4], [0, 0, 8, 8]):
        pop = PopulationTable(PopulationRecord(f"C{i}", 2000, v)
                              for i, v in enumerate(pops))
        got = pop.median_population()
        assert type(got) is float and got == float(statistics.median(pops))
    assert PopulationTable([]).median_population() == 0.0


def test_join_population_idempotent():
    pop = PopulationTable([PopulationRecord("Chile", 2014, 100)])
    table = ObservationTable([obs(country="Chile", time=datetime(2014, 5, 1))])
    once = join_population(table, pop)
    twice = join_population(once, pop)
    assert once.records == twice.records


def test_join_empty_population_gives_zero():
    table = ObservationTable([obs(country="Chile")])
    joined = join_population(table, PopulationTable([]))
    assert joined.records[0].population == 0.0


# --- reports ---

def test_missingness_fractions_exact():
    table = ObservationTable([
        obs(id="a", sensor_reading=None, comment_1="x"),
        obs(id="b", sensor_reading=1.0, comment_1=None),
        obs(id="c", sensor_reading=None, comment_1=None),
        obs(id="d", sensor_reading=2.0, comment_1="y"),
    ])
    report = missingness_report(table)
    fractions = {field: fraction for field, _, fraction in report}
    assert fractions["sensor_reading"] == 0.5
    assert fractions["comment_1"] == 0.5
    assert fractions["latitude"] == 0.0
    with pytest.raises(EmptyInputError):
        missingness_report(ObservationTable([]))


def test_missingness_includes_population_after_join():
    table = join_population(ObservationTable([obs()]), PopulationTable([]))
    fields = [field for field, _, _ in missingness_report(table)]
    assert "population" in fields


def test_category_distribution_order_and_ties():
    table = ObservationTable([
        obs(id=f"r{i}", clouds=c)
        for i, c in enumerate(["clear", "clear", "overcast", "hazy",
                               "hazy", None])
    ])
    freq = category_distribution(table, "clouds")
    assert sum(count for _, count, _ in freq) == 5
    # counts: clear 2, hazy 2, overcast 1; tie clear/hazy -> lexicographic
    assert [(category, count) for category, count, _ in freq] == [
        ("clear", 2), ("hazy", 2), ("overcast", 1)]
    assert {category: fraction for category, _, fraction in freq}["clear"] == 0.4


def test_category_distribution_derived_time_of_day():
    table = ObservationTable([
        obs(id="e", time=datetime(2014, 1, 1, 19, 0)),
        obs(id="m", time=datetime(2014, 1, 1, 6, 0)),
        obs(id="x", time=None),
    ])
    freq = category_distribution(table, "time_of_day_category")
    assert sum(count for _, count, _ in freq) == 2
    assert {category: fraction for category, _, fraction in freq}["evening"] == 0.5


def test_category_distribution_unknown_field():
    with pytest.raises(UnknownFieldError):
        category_distribution(ObservationTable([obs()]), "latitude")


def test_csv_outputs_end_with_newline(tmp_path):
    table = ObservationTable([obs()])
    dest = tmp_path / "obs.csv"
    write_observations(table, dest)
    assert dest.read_bytes().endswith(b"\n")


def test_subset_view_equals_a_fresh_derivation():
    table = ObservationTable(list(grid_table(30)) + [
        obs(id="no_time", time=None, clouds=None, comment_2="Dark, clear sky!"),
        obs(id="no_lat", latitude=None, sensor_type=None)])
    rows = np.arange(len(table)) % 3 != 1
    sub = table.subset(rows)
    fresh = ObservationTable(compress(table, rows))
    assert sub == fresh
    for part in ("numeric", "categorical", "tokens", "missing"):
        got, want = getattr(sub.view, part), getattr(fresh.view, part)
        assert list(got) == list(want)
        for name, col in want.items():
            assert not got[name].flags.writeable, name
            if part == "numeric":
                assert np.array_equal(got[name], col, equal_nan=True), name
            else:
                assert got[name].tolist() == col.tolist(), name
    no_time = table.ids.index("no_time")
    assert table.view.categorical["time_of_day_category"][no_time] is None
    assert table.view.missing["year"][no_time]
    assert table.view.tokens["comment_2"][no_time] == ["dark", "clear", "sky"]


# Calendar and clock edges: before 1970, 29 February, 31 December of a
# leap and a common year, the first and last second of a day, each day-part
# boundary, the year 1000 and the last second of 9999.
EDGE_TIMES = (
    datetime(1000, 1, 1), datetime(1900, 2, 28, 23, 59, 59),
    datetime(1969, 12, 31, 23, 59, 59), datetime(1970, 1, 1),
    datetime(1960, 2, 29, 4, 59, 59), datetime(2016, 2, 29, 5, 0, 0),
    datetime(2015, 12, 31, 11, 59, 59), datetime(2016, 12, 31, 12, 0, 0),
    datetime(2014, 6, 15, 16, 59, 59), datetime(2014, 6, 15, 17, 0, 0),
    datetime(2014, 6, 15, 21, 59, 59), datetime(2014, 6, 15, 22, 0, 0),
    datetime(2000, 3, 1, 23, 59, 59), datetime(9999, 12, 31, 23, 59, 59),
)
EDGE_ZONES = (None, -9.5, 5.75, 0.0, -12.0, 14.0, 0.1)


def edge_records():
    """One row per edge time, cycling through missing, negative and
    fractional zones, plus a row with every field missing and one with
    every field present."""
    rows = [obs(id=f"t{i}", time=ts, time_zone=EDGE_ZONES[i % len(EDGE_ZONES)],
                comment_1="Dark, clear sky!" if i % 2 else None,
                comment_2=f"note {i} x" if i % 3 else None)
            for i, ts in enumerate(EDGE_TIMES)]
    rows.append(obs(id="bare", **{field: None for field in (
        "time", "time_zone", "country", "latitude", "longitude", "elevation_m",
        "sensor_type", "sensor_reading", "clouds", "constellation", "comment_1",
        "comment_2", "limiting_magnitude")}))
    rows.append(obs(id="full", sensor_reading=0.1 + 0.2, latitude=-90.0,
                    longitude=180.0, comment_2="İstanbul ＡＢ tokens"))
    return rows


# A table whose every time is missing (lenient ingest keeps such rows),
# with and without a zone, and a table with no rows.
NO_TIME_RECORDS = [obs(id=f"n{i}", time=None, time_zone=zone,
                       comment_1="Dark, clear sky!" if i % 2 else None)
                   for i, zone in enumerate(EDGE_ZONES)]


@pytest.mark.parametrize("records", [edge_records(), NO_TIME_RECORDS, []],
                         ids=["edges", "no_times", "empty"])
def test_view_time_parts_equal_the_per_timestamp_definitions(records):
    table = ObservationTable(records)
    view = table.view
    for part in (view.numeric, view.categorical, view.tokens, view.missing):
        for name, column in part.items():
            assert column.shape == (len(table),), name
    for i, rec in enumerate(table):
        if rec.time is None:
            for name in ("year", "month", "day_of_year", "seconds_of_day",
                         "epoch_time"):
                assert math.isnan(view.numeric[name][i]) and view.missing[name][i]
            assert view.categorical["time_of_day_category"][i] is None
            continue
        parts = decompose_time(rec.time)
        assert view.numeric["year"][i] == parts.year, rec.time
        assert view.numeric["month"][i] == parts.month, rec.time
        assert view.numeric["day_of_year"][i] == parts.day_of_year, rec.time
        assert view.numeric["seconds_of_day"][i] == parts.seconds_of_day, rec.time
        assert view.categorical["time_of_day_category"][i] == parts.category, rec.time
        epoch = epoch_seconds(rec.time, rec.time_zone)
        assert view.numeric["epoch_time"][i].tobytes() == np.float64(epoch).tobytes()
    if "t7" in table.ids:
        assert view.numeric["day_of_year"][table.ids.index("t7")] == 366


def assert_views_bit_identical(got, want):
    for part in ("numeric", "categorical", "tokens", "missing"):
        got_part, want_part = getattr(got, part), getattr(want, part)
        assert list(got_part) == list(want_part), part
        for name, col in want_part.items():
            assert got_part[name].dtype == col.dtype, name
            if part == "numeric":
                assert got_part[name].tobytes() == col.tobytes(), name
            else:
                assert got_part[name].tolist() == col.tolist(), name


def test_parsed_table_equals_the_same_records_built_directly(tmp_path):
    records = edge_records()
    built = ObservationTable(records)
    path = tmp_path / "observations.csv"
    write_observations(built, path)
    parsed, diagnostics = parse_observations(path, "strict")
    assert diagnostics == []
    assert parsed == built and parsed.records == tuple(records)
    assert [parsed[i] for i in range(-1, len(parsed))] == [records[-1]] + records
    assert_views_bit_identical(parsed.view, built.view)
    bare = parsed.ids.index("bare")
    for name, mask in parsed.view.missing.items():
        assert mask[bare], name
    assert parsed.view.tokens["comment_2"][bare] == []


def test_join_population_equals_the_per_record_join():
    pop = PopulationTable([PopulationRecord("Chile", 2014, 100),
                           PopulationRecord("Chile", 2015, 300),
                           PopulationRecord("Peru", 2014, 900),
                           PopulationRecord("Peru", 1969, 7)])
    records = edge_records() + [
        obs(id="m", country="Chile", time=datetime(2014, 5, 1)),
        obs(id="y", country="Chile", time=datetime(2016, 5, 1)),  # no such year
        obs(id="p", country="Peru", time=datetime(1969, 12, 31, 23, 59, 59)),
        obs(id="n", country=None, time=datetime(2014, 5, 1)),
        obs(id="j", country="Peru", time=datetime(2014, 1, 1),
            population=5.0, population_matched=False),  # joined before
    ]
    table = ObservationTable(records)
    joined = join_population(table, pop)
    expected = join_population_oracle(records, pop)
    assert joined.records == tuple(expected)
    assert joined == ObservationTable(expected)
    assert [joined[i].population for i in range(-5, 0)] == [100.0, 200.0, 7.0,
                                                            200.0, 900.0]
    assert join_population(joined, pop) == joined
    assert table.records == tuple(records)  # the input table is unchanged
    assert_views_bit_identical(joined.view, ObservationTable(expected).view)
    assert {field: fraction for field, _, fraction in
            missingness_report(joined)}["population"] == 0.0


def test_failed_write_leaves_the_target_as_it_was(tmp_path):
    path = tmp_path / "artifact.csv"

    def rows():
        yield ["half", "written"]
        raise RuntimeError("crash mid-write")

    def crash():
        with pytest.raises(RuntimeError, match="mid-write"):
            write_rows(path, ["a", "b"], rows())

    crash()
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file
    path.write_text("old,file\n", encoding="utf-8")
    crash()
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "old,file\n"
