"""The block parser against the row-by-row oracle: tables, diagnostics and
strict-mode errors are equal whatever the block size."""

import re

import pytest

from skyglow import dataset
from skyglow.dataset import OBSERVATION_COLUMNS, parse_observations
from skyglow.errors import ParseError, SkyglowError

from helpers import records
from oracles import parse_observations_oracle

HEADER = ",".join(OBSERVATION_COLUMNS)
GOOD = dict(zip(OBSERVATION_COLUMNS, (
    "a1", "2014-02-21 18:12:00", "-5", "Chile", "-33.4", "-70.6", "520", "GAN",
    "", "clear", "Orion", "dark site", "no moon", "5.2")))


def row(row_id, **cells):
    return ",".join({**GOOD, "id": row_id, **cells}[c] for c in OBSERVATION_COLUMNS)


# Every check a row can fail, rows failing several, duplicates of kept and
# of dropped rows; the blank line and the short row shift no line number.
MIXED_ROWS = [
    row("k1"),
    "1,2,3",
    row("k2", time="", comment_1="", limiting_magnitude=""),
    "",
    row("", latitude="north"),
    row("k1"),
    row("d1", latitude="north"),
    row("d1"),
    row("d1"),
    *(row(f"n{i}", **{field: "x"}) for i, field in enumerate(
        ("time_zone", "latitude", "longitude", "elevation_m",
         "sensor_reading", "limiting_magnitude"))),
    row("f1", elevation_m="nan"),
    row("f2", sensor_reading="inf"),
    row("f3", limiting_magnitude="-1e999"),
    row("t1", time="21/02/2014"),
    row("t2", time="2014-02-21 18:12:00+02:00"),
    row("r1", latitude="90.5"),
    row("r2", longitude="-180.25"),
    row("r3", latitude="-90", longitude="180"),
    row("m1", time_zone="x", latitude="north"),
    row("m2", longitude="west", latitude="95"),
    row("m3", time="never", latitude="95", longitude="200"),
    row("m4", latitude="95", longitude="200"),
    row("m5", time="never", elevation_m="high"),
    row("k2", latitude="north"),
    row("e1", elevation_m="", sensor_reading="19.5"),
    row("d2", time="bad"),
    row("d2", time="bad"),
    row("d2"),
    row("e2", latitude=" 12.5 ", clouds="", type=""),
    row("x1", time_zone="1e999", latitude="nan"),
    row("last"),
]


def outcome(parse, path, strictness):
    try:
        table, diagnostics = parse(path, strictness)
    except SkyglowError as exc:
        return type(exc), str(exc)
    return records(table), [(d.line, d.row_id, d.message) for d in diagnostics]


@pytest.mark.parametrize("block_rows", [
    pytest.param(dataset._BLOCK_ROWS, id="default"), 3, 1])
def test_block_parse_matches_row_by_row_oracle(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "observations.csv"
    # every prefix in strict mode: each bad row is the first one once
    for stop in range(len(MIXED_ROWS) + 1):
        path.write_text("\n".join([HEADER, *MIXED_ROWS[:stop]]) + "\n",
                        encoding="utf-8")
        for strictness in ("strict", "lenient"):
            expected = outcome(parse_observations_oracle, path, strictness)
            assert outcome(parse_observations, path, strictness) == expected, (
                stop, strictness)
    table, diagnostics = parse_observations(path, "lenient")
    assert len(table) + len(diagnostics) == len(MIXED_ROWS)
    assert table.ids == ("k1", "k2", "d1", "r3", "e1", "d2", "e2", "last")


@pytest.mark.parametrize("block_rows", [dataset._BLOCK_ROWS, 3])
def test_strict_error_comes_before_a_later_read_error(tmp_path, monkeypatch,
                                                      block_rows):
    # the field over csv's size limit is read in the bad row's block
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "observations.csv"
    too_long = row("long", comment_1="x" * 200_000)
    path.write_text("\n".join([HEADER, row("a"), row("b", latitude="north"),
                               too_long]) + "\n", encoding="utf-8")
    with pytest.raises(SkyglowError) as caught:
        parse_observations(path, "strict")
    assert str(caught.value) == "row 'b': latitude is not numeric: 'north'"
    with pytest.raises(Exception, match="field larger than field limit"):
        parse_observations(path, "lenient")


@pytest.mark.parametrize("block_rows", [dataset._BLOCK_ROWS, 3])
def test_strict_error_comes_before_a_later_decode_error(tmp_path, monkeypatch,
                                                        block_rows):
    # the undecodable byte lies past the first chunk the file is decoded in
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "observations.csv"
    rows = [HEADER, row("a"), row("b", latitude="north"),
            *(row(f"g{i}") for i in range(300))]
    path.write_bytes("\n".join(rows).encode("utf-8") + b"\nz\xff\n")
    with pytest.raises(SkyglowError) as caught:
        parse_observations(path, "strict")
    assert str(caught.value) == "row 'b': latitude is not numeric: 'north'"
    with pytest.raises(ParseError,
                       match=f"^{re.escape(str(path))}: not a utf-8 CSV file: "):
        parse_observations(path, "lenient")
