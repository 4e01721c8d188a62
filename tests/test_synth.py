from datetime import datetime

import pytest

from helpers import make_table, records
from oracles import row_by_row_observations
from skyglow.dataset import (
    category_distribution,
    decompose_time,
    join_population,
    missingness_report,
    parse_observations,
    parse_population,
    POPULATION_YEARS,
    write_observations,
)
from skyglow.errors import ParameterError
from skyglow.features.pipeline import bin_target
from skyglow.synth import (
    SynthConfig,
    generate_observations,
    generate_population,
    write_population_census,
    write_synthetic_dataset,
)


CONFIG = SynthConfig(n_rows=500, seed=11)
TABLE = generate_observations(CONFIG)
ROWS = records(TABLE)


def missing_fraction(field):
    return {name: fraction
            for name, _, fraction in missingness_report(TABLE)}[field]


def test_missingness_hits_configured_rates():
    n = CONFIG.n_rows
    for field, rate in [
        ("sensor_reading", CONFIG.missing_sensor_reading),
        ("comment_1", CONFIG.missing_comment_1),
        ("comment_2", CONFIG.missing_comment_2),
        ("constellation", CONFIG.missing_constellation),
        ("limiting_magnitude", CONFIG.missing_target),
    ]:
        assert abs(missing_fraction(field) - rate) <= 1.0 / n


def test_classes_exactly_balanced():
    # 500 rows over four classes: quota puts 125 in each
    counts = {c: 0 for c in (2, 3, 4, 5)}
    for rec in ROWS:
        if rec.limiting_magnitude is None:
            continue
        counts[bin_target(rec.limiting_magnitude)] += 1
    present = sum(counts.values())
    assert present == 500 - round(500 * CONFIG.missing_target)
    # missingness is independent of class, so tolerate sampling wobble
    for c, count in counts.items():
        assert abs(count - present / 4) <= 15


def test_magnitude_sits_within_class_band():
    for rec in ROWS:
        if rec.limiting_magnitude is None:
            continue
        c = bin_target(rec.limiting_magnitude)
        assert abs(rec.limiting_magnitude - c) <= 0.2 + 1e-12


def test_dominant_category_shares():
    n = CONFIG.n_rows
    for field, label, share in [
        ("sensor_type", "GAN", CONFIG.share_type_gan),
        ("clouds", "clear", CONFIG.share_clouds_clear),
    ]:
        table = category_distribution(TABLE, field)
        fraction = {category: fraction
                    for category, _, fraction in table}[label]
        assert abs(fraction - share) <= 1.0 / n


def test_constellation_share_is_over_present_rows():
    values = [rec.constellation for rec in ROWS if rec.constellation is not None]
    orion = sum(1 for v in values if v == "Orion")
    assert abs(orion / len(values) - CONFIG.share_constellation_orion) \
        <= 1.0 / len(values)


def test_time_of_day_share():
    dayparts = [decompose_time(rec.time).category for rec in ROWS]
    evening = sum(1 for d in dayparts if d == "evening")
    assert abs(evening / len(dayparts) - CONFIG.share_evening) \
        <= 1.0 / len(dayparts)


def test_same_seed_reproduces_different_seed_varies():
    again = generate_observations(SynthConfig(n_rows=500, seed=11))
    assert records(again) == ROWS
    other = generate_observations(SynthConfig(n_rows=500, seed=12))
    assert records(other) != ROWS


def test_row_ids_unique_and_sequential():
    ids = [rec.id for rec in ROWS]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "syn-000001"
    assert ids[-1] == f"syn-{CONFIG.n_rows:06d}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_wise_table_equals_the_tables_built_from_records(seed):
    config = SynthConfig(n_rows=150, seed=seed)
    table = generate_observations(config)
    rows = records(table)
    assert len({rec.id for rec in rows}) == len(table) == 150
    # rebuilt from this table's rows (which fails on a duplicate id), and
    # drawn row by row by the old generator
    for other in (make_table(rows), row_by_row_observations(config)):
        assert records(other) == rows
    for record in rows:
        for field, value in record._asdict().items():
            # plain Python values, never numpy scalars
            assert value is None or type(value) in (float, str, datetime), \
                (field, type(value))
        assert record.population is None


# Quota edge cases show at the smallest sizes; 2000 rows is the benchmark's.
@pytest.mark.parametrize("n_rows, n_seeds", [(8, 40), (9, 40), (150, 40), (2000, 5)])
def test_written_csvs_match_the_row_by_row_generator(tmp_path, n_rows, n_seeds):
    for seed in range(n_seeds):
        config = SynthConfig(n_rows=n_rows, seed=seed)
        write_synthetic_dataset(tmp_path / "obs.csv", tmp_path / "pop.csv", config)
        write_observations(row_by_row_observations(config), tmp_path / "obs_oracle.csv")
        write_population_census(generate_population(), tmp_path / "pop_oracle.csv")
        assert ((tmp_path / "obs.csv").read_bytes()
                == (tmp_path / "obs_oracle.csv").read_bytes()), (n_rows, seed)
        assert ((tmp_path / "pop.csv").read_bytes()
                == (tmp_path / "pop_oracle.csv").read_bytes()), (n_rows, seed)


def test_census_growth_and_round_trip(tmp_path):
    pop = generate_population()
    base = pop.get("Chile", POPULATION_YEARS[0])
    later = pop.get("Chile", POPULATION_YEARS[0] + 10)
    assert later == round(base * 1.02 ** 10)

    path = tmp_path / "census.csv"
    write_population_census(pop, path)
    parsed = parse_population(path)
    for rec in pop:
        assert parsed.get(rec.country, rec.year) == rec.population


def test_written_dataset_parses_strictly_and_joins(tmp_path):
    obs_path = tmp_path / "obs.csv"
    pop_path = tmp_path / "pop.csv"
    table = write_synthetic_dataset(obs_path, pop_path,
                                    SynthConfig(n_rows=64, seed=3))
    parsed, diagnostics = parse_observations(obs_path, strictness="strict")
    assert diagnostics == []
    assert len(parsed) == len(table) == 64
    joined = join_population(parsed, parse_population(pop_path))
    assert all(rec.population is not None and rec.population > 0
               for rec in records(joined))


def test_written_bytes_deterministic(tmp_path):
    paths = [(tmp_path / f"o{i}.csv", tmp_path / f"p{i}.csv") for i in (0, 1)]
    for obs_path, pop_path in paths:
        write_synthetic_dataset(obs_path, pop_path, SynthConfig(n_rows=40, seed=5))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_config_validation():
    with pytest.raises(ParameterError):
        SynthConfig(n_rows=7)
    with pytest.raises(ParameterError):
        SynthConfig(missing_target=1.2)
    with pytest.raises(ParameterError):
        SynthConfig(share_type_gan=-0.1)
