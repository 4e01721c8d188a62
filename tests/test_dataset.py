import io
import math
from datetime import datetime

import numpy as np
import pytest

from skyglow.dataset import (
    OBSERVATION_COLUMNS,
    ObservationTable,
    PopulationRecord,
    PopulationTable,
    category_distribution,
    join_population,
    missingness_report,
    parse_observations,
    parse_population,
    parse_timestamp,
    read_population_long,
    time_of_day_category,
    write_observations,
    write_population,
)
from skyglow.errors import (
    DuplicateKeyError,
    EmptyInputError,
    RowError,
    SchemaError,
    TimestampError,
    UnknownFieldError,
)

from helpers import obs

HEADER = ",".join(OBSERVATION_COLUMNS)


def _csv(*rows):
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


GOOD_ROW = ("a1,2014-02-21 18:12:00,-5,Chile,-33.4,-70.6,520,GAN,,clear,"
            "Orion,dark site,no moon,5.2")


def test_parse_good_row():
    table, diags = parse_observations(_csv(GOOD_ROW), "strict")
    assert diags == []
    rec = table.records[0]
    assert rec.id == "a1"
    assert rec.time == datetime(2014, 2, 21, 18, 12)
    assert rec.time_zone == -5.0
    assert rec.sensor_type == "GAN"
    assert rec.sensor_reading is None
    assert rec.limiting_magnitude == 5.2
    assert rec.population is None


def test_header_must_match_schema():
    bad = io.StringIO("id,when\n1,2\n")
    with pytest.raises(SchemaError):
        parse_observations(bad)


def test_missing_file_header_only_is_empty_table():
    table, diags = parse_observations(_csv())
    assert len(table) == 0 and diags == []


def test_bad_numeric_strict_vs_lenient():
    row = GOOD_ROW.replace("-33.4", "not-a-number")
    with pytest.raises(RowError):
        parse_observations(_csv(row), "strict")
    table, diags = parse_observations(_csv(row, GOOD_ROW.replace("a1", "a2")),
                                      "lenient")
    assert len(table) == 1
    assert len(diags) == 1 and "latitude" in diags[0].message


def test_bad_timestamp_reported():
    row = GOOD_ROW.replace("2014-02-21 18:12:00", "21/02/2014")
    table, diags = parse_observations(_csv(row), "lenient")
    assert len(table) == 0
    assert "timestamp" in diags[0].message.lower()


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateKeyError):
        parse_observations(_csv(GOOD_ROW, GOOD_ROW), "strict")
    table, diags = parse_observations(_csv(GOOD_ROW, GOOD_ROW), "lenient")
    assert len(table) == 1 and len(diags) == 1


def test_missing_id_is_row_error():
    row = GOOD_ROW.replace("a1", "")
    _, diags = parse_observations(_csv(row), "lenient")
    assert len(diags) == 1


def test_wrong_cell_count_flagged_with_line_number():
    bad = io.StringIO(HEADER + "\n1,2,3\n")
    _, diags = parse_observations(bad, "lenient")
    assert diags[0].line == 2


ROW_PROBLEMS = [
    ("1,2,3", RowError, (3, "", "line 3: expected 14 cells, got 3")),
    (GOOD_ROW.replace("a1", ""), RowError, (4, "", "line 4: empty id")),
    (GOOD_ROW, DuplicateKeyError, (5, "a1", "duplicate id: 'a1' (line 5)")),
    (GOOD_ROW.replace("a1", "a2").replace("-33.4", "north"), RowError,
     (6, "a2", "row 'a2': latitude is not numeric: 'north'")),
]


def test_row_problems_pinned_in_both_modes():
    rows = [GOOD_ROW] + [row for row, _, _ in ROW_PROBLEMS]
    table, diags = parse_observations(_csv(*rows), "lenient")
    assert table.ids == ("a1",)
    assert [(d.line, d.row_id, d.message) for d in diags] == [
        expected for _, _, expected in ROW_PROBLEMS]
    # strict mode: valid padding puts each problem row on its lenient line
    for pad, (row, error, (_, _, message)) in enumerate(ROW_PROBLEMS):
        padding = [GOOD_ROW.replace("a1", f"p{i}") for i in range(pad)]
        with pytest.raises(error) as caught:
            parse_observations(_csv(GOOD_ROW, *padding, row), "strict")
        assert type(caught.value) is error and str(caught.value) == message


def test_round_trip_preserves_values():
    table, _ = parse_observations(_csv(GOOD_ROW))
    buf = io.StringIO()
    write_observations(table, buf)
    again, _ = parse_observations(io.StringIO(buf.getvalue()), "strict")
    assert again.records == table.records


def test_round_trip_float_exact():
    rec = obs(latitude=0.1 + 0.2)  # 0.30000000000000004
    buf = io.StringIO()
    write_observations(ObservationTable([rec]), buf)
    again, _ = parse_observations(io.StringIO(buf.getvalue()))
    assert again.records[0].latitude == rec.latitude


def test_parse_timestamp_truncates_microseconds():
    ts = parse_timestamp("2014-02-21 18:12:00.654321")
    assert ts == datetime(2014, 2, 21, 18, 12, 0)


def test_parse_timestamp_rejects_timezone_aware():
    with pytest.raises(TimestampError):
        parse_timestamp("2014-02-21 18:12:00+02:00")
    with pytest.raises(TimestampError):
        parse_timestamp("garbage")


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
    assert time_of_day_category(datetime(2014, 1, 1, hour, minute)) == expected


def test_numeric_column_nan_for_missing():
    table = ObservationTable([obs(id="x", sensor_reading=None),
                              obs(id="y", sensor_reading=19.5)])
    col = table.numeric_column("sensor_reading")
    assert math.isnan(col[0]) and col[1] == 19.5
    with pytest.raises(UnknownFieldError):
        table.numeric_column("no_such_field")


def test_text_column_none_for_missing():
    table = ObservationTable([obs(comment_1=None), obs(id="r1", comment_1="hi")])
    assert table.text_column("comment_1") == (None, "hi")


# --- population ---

POP_HEADER = ("Country Name,Country Code,Indicator Name,2006,2007,2008,2009,"
              "2010,2011,2012,2013,2014,2015,2016,2017,2018,2019,2020")
POP_WIDE = (
    POP_HEADER + "\n"
    'Chile,CHL,"Population, total",16,17,18,19,20,21,22,23,24,25,26,27,28,29,30\n'
    "Norway,NOR,x,5,5,5,5,5,5,5,5,5,5,5,5,5,5,5\n")


def test_parse_population_wide():
    pop = parse_population(io.StringIO(POP_WIDE))
    assert len(pop) == 30
    assert pop.get("Chile", 2014) == 24
    assert pop.get("Norway", 2020) == 5
    assert pop.get("Atlantis", 2014) is None


def test_population_duplicate_country_year():
    row = "A,1,i," + ",".join(["7"] * 15)
    dup = io.StringIO(POP_HEADER + "\n" + row + "\n" + row + "\n")
    with pytest.raises(DuplicateKeyError):
        parse_population(dup)


def test_population_long_round_trip():
    pop = PopulationTable([PopulationRecord("A", 2010, 100),
                           PopulationRecord("B", 2011, 200)])
    buf = io.StringIO()
    write_population(pop, buf)
    again = read_population_long(io.StringIO(buf.getvalue()))
    assert list(again) == list(pop)


def test_population_long_bad_rows_name_the_line():
    header = "country,year,population\n"
    with pytest.raises(SchemaError, match="line 3: invalid literal"):
        read_population_long(io.StringIO(header + "A,2010,100\nB,twenty,200\n"))
    with pytest.raises(SchemaError, match="line 2: expected 3 fields, got 2"):
        read_population_long(io.StringIO(header + "A,2010\n"))


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
    assert report.fraction("sensor_reading") == 0.5
    assert report.fraction("comment_1") == 0.5
    assert report.fraction("latitude") == 0.0
    with pytest.raises(EmptyInputError):
        missingness_report(ObservationTable([]))


def test_missingness_includes_population_after_join():
    table = join_population(ObservationTable([obs()]), PopulationTable([]))
    fields = [e.field for e in missingness_report(table).fields]
    assert "population" in fields


def test_category_distribution_order_and_ties():
    table = ObservationTable([
        obs(id=f"r{i}", clouds=c)
        for i, c in enumerate(["clear", "clear", "overcast", "hazy",
                               "hazy", None])
    ])
    freq = category_distribution(table, "clouds")
    assert freq.total_present == 5
    # counts: clear 2, hazy 2, overcast 1; tie clear/hazy -> lexicographic
    assert [(e.category, e.count) for e in freq.entries] == [
        ("clear", 2), ("hazy", 2), ("overcast", 1)]
    assert freq.fraction("clear") == 0.4


def test_category_distribution_derived_time_of_day():
    table = ObservationTable([
        obs(id="e", time=datetime(2014, 1, 1, 19, 0)),
        obs(id="m", time=datetime(2014, 1, 1, 6, 0)),
        obs(id="x", time=None),
    ])
    freq = category_distribution(table, "time_of_day_category")
    assert freq.total_present == 2
    assert freq.fraction("evening") == 0.5


def test_category_distribution_unknown_field():
    with pytest.raises(UnknownFieldError):
        category_distribution(ObservationTable([obs()]), "latitude")


def test_csv_outputs_end_with_newline(tmp_path):
    table = ObservationTable([obs()])
    dest = tmp_path / "obs.csv"
    write_observations(table, dest)
    assert dest.read_bytes().endswith(b"\n")
