"""Seeded synthetic dataset generator.

Produces an observation table with the canonical schema, four well-
separated class blobs in (latitude, longitude, elevation, sensor reading)
space with class-correlated comment vocabulary, and a matching population
census file. Missingness rates and dominant-category shares are hit
EXACTLY (to the row) via largest-remainder quotas over a seeded shuffle,
so emitted reports land within 1/n of the configured fractions.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .dataset import (
    ObservationRecord,
    ObservationTable,
    PopulationRecord,
    PopulationTable,
    POPULATION_YEARS,
    write_observations,
    write_rows,
)
from .specs import SynthConfig

# four class blobs; the class id doubles as the integer limiting magnitude
_CLASS_IDS = (2, 3, 4, 5)
_LAT_CENTERS = {2: -60.0, 3: -20.0, 4: 20.0, 5: 60.0}
_LON_CENTERS = {2: -120.0, 3: -40.0, 4: 40.0, 5: 120.0}
_ELEV_CENTERS = {2: 50.0, 3: 350.0, 4: 650.0, 5: 950.0}
_READING_CENTERS = {2: 17.0, 3: 18.5, 4: 20.0, 5: 21.5}

_SKY_WORDS = {
    2: ("bright", "glow", "city", "lights", "haze", "washed", "orange"),
    3: ("some", "stars", "visible", "urban", "light", "sky", "moderate"),
    4: ("good", "dark", "sky", "many", "stars", "crisp", "transparent"),
    5: ("superb", "dark", "faint", "stars", "milky", "way", "pristine"),
}
_PLACE_WORDS = ("backyard", "park", "rooftop", "field", "road", "hilltop",
                "beach", "campsite", "driveway", "balcony")

_COUNTRIES = ("Chile", "United States", "Australia", "Spain", "India", "Norway")
_TYPES_REST = ("DSM", "SQM", "LON", "BB")
_CLOUDS_REST = ("partly cloudy", "mostly cloudy", "overcast")
_CONSTELLATIONS_REST = ("Leo", "Crux", "Ursa Major", "Scorpius")
_DAYPART_REST = ("afternoon", "morning", "night")
_DAYPART_WINDOWS = {
    "morning": (5, 12), "afternoon": (12, 17), "evening": (17, 22),
    "night": (22, 29),  # wraps past midnight
}


def _quota_counts(n: int, fractions: list[float]) -> list[int]:
    """Largest-remainder apportionment of n items over the fractions
    (which must sum to 1); ties go to the earlier entry."""
    exact = [f * n for f in fractions]
    counts = [int(np.floor(e)) for e in exact]
    leftover = n - sum(counts)
    order = sorted(range(len(fractions)),
                   key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _quota_labels(rng: np.random.Generator, n: int,
                  labelled_fractions: list[tuple[object, float]]) -> list:
    labels = []
    fractions = [f for _, f in labelled_fractions]
    for (label, _), count in zip(labelled_fractions, _quota_counts(n, fractions)):
        labels.extend([label] * count)
    out = np.array(labels, dtype=object)
    rng.shuffle(out)
    return list(out)


def _missing_mask(rng: np.random.Generator, n: int, fraction: float) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    n_missing = _quota_counts(n, [fraction, 1.0 - fraction])[0]
    mask[rng.permutation(n)[:n_missing]] = True
    return mask


def _spread_rest(total: float, count: int) -> list[float]:
    """Descending shares for the non-dominant categories, summing to total."""
    raw = np.arange(count, 0, -1, dtype=float)
    raw = raw / raw.sum() * total
    return raw.tolist()


def generate_observations(config: SynthConfig) -> ObservationTable:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    n = config.n_rows

    classes = _quota_labels(rng, n, [(c, 0.25) for c in _CLASS_IDS])
    lat = np.array([rng.normal(_LAT_CENTERS[c], 3.0) for c in classes])
    lon = np.array([rng.normal(_LON_CENTERS[c], 3.0) for c in classes])
    lat = np.clip(lat, -85.0, 85.0)
    lon = np.clip(lon, -175.0, 175.0)
    elevation = np.array([rng.normal(_ELEV_CENTERS[c], 40.0) for c in classes])
    reading = np.array([rng.normal(_READING_CENTERS[c], 0.3) for c in classes])
    magnitude = np.array([c + rng.uniform(-0.2, 0.2) for c in classes])

    dayparts = _quota_labels(rng, n, [("evening", config.share_evening)] + list(
        zip(_DAYPART_REST, _spread_rest(1.0 - config.share_evening,
                                        len(_DAYPART_REST)))))
    years = rng.integers(POPULATION_YEARS[0], POPULATION_YEARS[-1] + 1, size=n)
    day_of_year = rng.integers(1, 366, size=n)
    times = []
    for i in range(n):
        low, high = _DAYPART_WINDOWS[dayparts[i]]
        hour = int(rng.integers(low, high)) % 24
        minute = int(rng.integers(0, 60))
        second = int(rng.integers(0, 60))
        times.append(datetime(int(years[i]), 1, 1)
                     + timedelta(days=int(day_of_year[i]) - 1,
                                 hours=hour, minutes=minute, seconds=second))

    sensor_types = _quota_labels(rng, n, [("GAN", config.share_type_gan)] + list(
        zip(_TYPES_REST, _spread_rest(1.0 - config.share_type_gan,
                                      len(_TYPES_REST)))))
    clouds = _quota_labels(rng, n, [("clear", config.share_clouds_clear)] + list(
        zip(_CLOUDS_REST, _spread_rest(1.0 - config.share_clouds_clear,
                                       len(_CLOUDS_REST)))))

    # constellation shares apply to PRESENT rows, so draw the mask first
    constellation_missing = _missing_mask(rng, n, config.missing_constellation)
    n_present = int((~constellation_missing).sum())
    present_labels = _quota_labels(
        rng, n_present,
        [("Orion", config.share_constellation_orion)] + list(
            zip(_CONSTELLATIONS_REST,
                _spread_rest(1.0 - config.share_constellation_orion,
                             len(_CONSTELLATIONS_REST)))))
    constellation: list[str | None] = []
    feed = iter(present_labels)
    for missing in constellation_missing:
        constellation.append(None if missing else next(feed))

    reading_missing = _missing_mask(rng, n, config.missing_sensor_reading)
    comment_1_missing = _missing_mask(rng, n, config.missing_comment_1)
    comment_2_missing = _missing_mask(rng, n, config.missing_comment_2)
    target_missing = _missing_mask(rng, n, config.missing_target)
    countries = rng.choice(np.array(_COUNTRIES, dtype=object), size=n,
                           p=[0.30, 0.25, 0.15, 0.12, 0.10, 0.08])

    records = []
    for i in range(n):
        words = _SKY_WORDS[classes[i]]
        com1 = None
        if not comment_1_missing[i]:
            picked = rng.choice(len(words), size=int(rng.integers(3, 6)),
                                replace=False)
            com1 = " ".join(words[j] for j in picked)
        com2 = None
        if not comment_2_missing[i]:
            picked = rng.choice(len(_PLACE_WORDS), size=int(rng.integers(2, 4)),
                                replace=False)
            com2 = " ".join(_PLACE_WORDS[j] for j in picked)
        records.append(ObservationRecord(
            id=f"syn-{i + 1:06d}",
            time=times[i],
            time_zone=float(np.round(lon[i] / 15.0)),
            country=str(countries[i]),
            latitude=float(lat[i]),
            longitude=float(lon[i]),
            elevation_m=float(elevation[i]),
            sensor_type=str(sensor_types[i]),
            sensor_reading=None if reading_missing[i] else float(reading[i]),
            clouds=str(clouds[i]),
            constellation=constellation[i],
            comment_1=com1,
            comment_2=com2,
            limiting_magnitude=None if target_missing[i] else float(magnitude[i]),
        ))
    return ObservationTable(records)


def generate_population() -> PopulationTable:
    """Deterministic census for the synthetic countries: a fixed base per
    country compounding 2% per year, rounded to whole persons."""
    records = []
    for i, country in enumerate(_COUNTRIES):
        base = (i + 1) * 1_000_000
        for year in POPULATION_YEARS:
            value = int(round(base * 1.02 ** (year - POPULATION_YEARS[0])))
            records.append(PopulationRecord(country, year, value))
    return PopulationTable(records)


def write_population_census(table: PopulationTable, dest: str | Path) -> None:
    """Wide census format (Country Name + one column per year), with the
    decorative extra columns real-world census exports carry."""
    years = [str(y) for y in POPULATION_YEARS]
    by_country: dict[str, dict[int, int]] = {}
    for rec in table:
        by_country.setdefault(rec.country, {})[rec.year] = rec.population
    write_rows(dest, ["Country Name", "Country Code", "Indicator Name"] + years,
               ([country, f"C{i:03d}", "Population, total"]
                + [str(values.get(int(y), "")) for y in years]
                for i, (country, values) in enumerate(sorted(by_country.items()))))


def write_synthetic_dataset(observations_path: str | Path,
                            population_path: str | Path,
                            config: SynthConfig) -> ObservationTable:
    table = generate_observations(config)
    write_observations(table, observations_path)
    write_population_census(generate_population(), population_path)
    return table
