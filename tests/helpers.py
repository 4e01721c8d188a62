"""Small builders shared across test modules."""

from __future__ import annotations

from datetime import datetime
from typing import Iterable, NamedTuple

import numpy as np

from skyglow.dataset import _RECORD_FIELDS, ObservationTable


class Obs(NamedTuple):
    """One observation row, the tests' row model of a table: the table's
    fields in its column order, None where a value is missing."""

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
    population: float | None = None


assert Obs._fields == _RECORD_FIELDS, "the row model follows the table's columns"


def make_table(rows: Iterable[Obs]) -> ObservationTable:
    """The table of `rows`, in order, whose ids must be unique."""
    rows = list(rows)
    ids = [row.id for row in rows]
    assert len(set(ids)) == len(ids), f"duplicate ids in {ids}"
    return ObservationTable({field: tuple(getattr(row, field) for row in rows)
                             for field in Obs._fields})


def records(table: ObservationTable) -> list[Obs]:
    """The rows of `table`, in order."""
    return [Obs(*row) for row in zip(*(table._columns[field]
                                       for field in Obs._fields))]


def obs(id="r0", time=datetime(2014, 6, 15, 21, 30), time_zone=0.0,
        country="Noristan", latitude=10.0, longitude=20.0, elevation_m=100.0,
        sensor_type="GAN", sensor_reading=None, clouds="clear",
        constellation="Orion", comment_1=None, comment_2=None,
        limiting_magnitude=4.0, population=None) -> Obs:
    return Obs(
        id=id, time=time, time_zone=time_zone, country=country,
        latitude=latitude, longitude=longitude, elevation_m=elevation_m,
        sensor_type=sensor_type, sensor_reading=sensor_reading, clouds=clouds,
        constellation=constellation, comment_1=comment_1, comment_2=comment_2,
        limiting_magnitude=limiting_magnitude, population=population)


def grid_table(n: int, seed: int = 0) -> ObservationTable:
    """n rows spread over space/time with a target tied to latitude, so
    feature/label structure is learnable but not degenerate."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        lat = float(rng.uniform(-60, 60))
        rows.append(obs(
            id=f"g{i:04d}",
            time=datetime(2010 + i % 8, 1 + i % 12, 1 + i % 28,
                          i % 24, (7 * i) % 60),
            time_zone=float((i % 5) - 2),
            latitude=lat,
            longitude=float(rng.uniform(-150, 150)),
            elevation_m=float(rng.uniform(0, 2000)),
            sensor_reading=float(rng.normal(19, 1)) if i % 3 else None,
            comment_1=f"sky note {i % 7}" if i % 2 else None,
            limiting_magnitude=float(np.clip(2.0 + (lat + 60) / 30, 0, 7)),
        ))
    return make_table(rows)
