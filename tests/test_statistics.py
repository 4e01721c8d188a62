"""The `eda` statistics of `dataset` are pure Python, and each gives the
float that the numpy formulation gives: `pairwise_sum` adds in the order of
`np.add.reduce`, and `pearson`, `annual_trend`, `category_distribution`
and `derived_numeric_columns` equal, bit for bit, the numpy code that the
column view fed before."""

import numpy as np
import pytest

from skyglow.dataset import (
    ObservationTable,
    PopulationRecord,
    PopulationTable,
    annual_trend,
    category_distribution,
    derived_numeric_columns,
    join_population,
    pairwise_sum,
    pearson,
)
from skyglow.errors import UndefinedCorrelationError, UnknownFieldError

from helpers import grid_table
from test_dataset import edge_records

SIZES = list(range(1, 401)) + [1840, 5000]


def numpy_pearson(x, y) -> float:
    """Pearson correlation as numpy computes it, None and NaN marking
    missing values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    complete = ~(np.isnan(x) | np.isnan(y))
    x, y = x[complete], y[complete]
    if len(x) < 2:
        raise UndefinedCorrelationError(
            f"need >= 2 complete pairs, found {len(x)}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).mean()))
    sy = float(np.sqrt((dy * dy).mean()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in an input column")
    return float((dx * dy).mean() / (sx * sy))


def numpy_annual_trend(table, field):
    """(year, mean) rows from the float64 columns of the table's view, each
    year summed in row order."""
    values = table.view.numeric[field]
    years = table.view.numeric["year"]
    present = ~(np.isnan(values) | np.isnan(years))
    found, group = np.unique(years[present], return_inverse=True)
    sums = np.zeros(len(found))
    np.add.at(sums, group, values[present])
    counts = np.bincount(group, minlength=len(found))
    return [(int(year), float(total) / int(count))
            for year, total, count in zip(found, sums, counts)]


def random_column(rng, n):
    """n floats of a random scale and offset; a third of the columns hold
    integers, as the time parts do."""
    values = rng.normal(rng.uniform(-1e3, 1e3), 10 ** rng.uniform(-3, 3), n)
    if rng.random() < 1 / 3:
        values = np.round(values)
    return values


def with_missing(rng, values, marker):
    """`values` as a list of floats with about a tenth replaced by `marker`."""
    out = values.tolist()
    for i in np.flatnonzero(rng.random(len(out)) < 0.1).tolist():
        out[i] = marker
    return out


def test_pairwise_sum_is_bit_equal_to_numpy_add_reduce():
    rng = np.random.default_rng(11)
    for n in [0] + SIZES:
        values = random_column(rng, n)
        want = float(np.add.reduce(values))
        assert pairwise_sum(values.tolist()).hex() == want.hex(), n
    # a lone negative zero sums to +0.0, as numpy starts from 0.0 too
    assert pairwise_sum([-0.0]).hex() == float(np.add.reduce([-0.0])).hex()


def test_pearson_is_bit_equal_to_the_numpy_formula():
    rng = np.random.default_rng(12)
    for n in SIZES:
        x = random_column(rng, n)
        y = 0.3 * x + random_column(rng, n)
        # None marks missing values in x, NaN in y
        x, y = with_missing(rng, x, None), with_missing(rng, y, float("nan"))
        try:
            want = numpy_pearson(x, y)
        except UndefinedCorrelationError as exc:
            with pytest.raises(UndefinedCorrelationError, match=str(exc)):
                pearson(x, y)
            continue
        assert pearson(x, y).hex() == want.hex(), n


@pytest.mark.parametrize("constant", [0.1, 2.7, 1e-3, 123.456])
def test_pearson_of_a_constant_column_is_undefined(constant):
    # numpy's rounded mean of a non-integer constant differs from it, so
    # the formula alone leaves a tiny nonzero spread and a correlation of
    # about 1e-17 instead of the note
    y = np.random.default_rng(13).normal(size=1840)
    gap = [constant] * 1840
    gap[5] = None
    for column in ([constant] * 1840, gap):
        for x, other in ((column, y), (y, column)):
            with pytest.raises(UndefinedCorrelationError, match="zero variance"):
                pearson(x, other)


def joined_table():
    table = ObservationTable(list(grid_table(300, seed=3)) + edge_records())
    population = PopulationTable([PopulationRecord("Noristan", year, 1000 + year)
                                  for year in range(2010, 2016)])
    return join_population(table, population)


def test_derived_numeric_columns_equal_the_view_columns():
    table = joined_table()
    columns = derived_numeric_columns(table)
    assert list(columns) == list(table.view.numeric)
    for name, column in columns.items():
        want = table.view.numeric[name].tolist()
        assert len(column) == len(want), name
        for got, value in zip(column, want):
            if value != value:
                assert got is None, name
            else:
                assert type(got) is float and got.hex() == value.hex(), name


def test_annual_trend_and_categories_equal_the_numpy_code():
    table = joined_table()
    for field in ("limiting_magnitude", "sensor_reading", "elevation_m",
                  "population", "time_zone"):
        got = annual_trend(table, field)
        want = numpy_annual_trend(table, field)
        assert [(y, m.hex()) for y, m in got] == [(y, m.hex()) for y, m in want]
    with pytest.raises(UnknownFieldError):
        annual_trend(table, "year")
    for field in ("sensor_type", "clouds", "constellation",
                  "time_of_day_category"):
        values = table.view.categorical[field][~table.view.missing[field]]
        counts = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        want = [(category, n, n / len(values)) for category, n in
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert category_distribution(table, field) == want, field
