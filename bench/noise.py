"""Seeded class-overlap and label-noise rewrite of a synthetic observation CSV.

The stock `skyglow synth` table puts the four populated classes in
well-separated blobs, so every model scores OOF micro-F1 1.0 and a change
that hurts model quality cannot show. This rewrite jitters the blob
coordinates until the classes overlap and redraws a fixed share of the
labels uniformly over all eight classes, which gives the quality metrics
headroom and gives every class training rows.

The program never sees this module: it only reads the rewritten CSV.
Output depends only on the input bytes and the seed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

N_CLASSES = 8

# jitter standard deviations and the share of labels redrawn
LATITUDE_SIGMA = 25.0      # degrees
LONGITUDE_SIGMA = 60.0     # degrees
ELEVATION_SIGMA = 250.0    # metres
READING_SIGMA = 1.0        # sensor units (mag / arcsec^2)
LABEL_NOISE = 0.2          # share of labelled rows redrawn


def _cell(value: float) -> str:
    # the CSV writer of the program writes floats with repr
    return repr(float(value))


def add_noise(rows: list[dict[str, str]], seed: int) -> list[dict[str, str]]:
    """Return noisy copies of `rows` (dicts keyed by the CSV header).

    Latitude and longitude are clipped to the generator's own range
    (+-85, +-175) and the time zone is recomputed from the new longitude,
    as the generator derives it, so no column keeps the old blob centre.
    Exactly round(LABEL_NOISE * labelled rows) labels are redrawn; the
    chosen rows get class c + U(-0.2, 0.2) for c uniform on 0..7.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    n = len(rows)
    # every stream is drawn at full length so missing cells never shift it
    d_lat = rng.normal(0.0, LATITUDE_SIGMA, n)
    d_lon = rng.normal(0.0, LONGITUDE_SIGMA, n)
    d_elev = rng.normal(0.0, ELEVATION_SIGMA, n)
    d_read = rng.normal(0.0, READING_SIGMA, n)
    labelled = [i for i, row in enumerate(rows) if row["limiting_magnitude"] != ""]
    n_redraw = int(round(LABEL_NOISE * len(labelled)))
    redraw = rng.permutation(np.array(labelled, dtype=np.int64))[:n_redraw]
    new_class = rng.integers(0, N_CLASSES, size=n_redraw)
    new_offset = rng.uniform(-0.2, 0.2, size=n_redraw)

    out = [dict(row) for row in rows]
    for i, row in enumerate(out):
        if row["latitude"] != "":
            row["latitude"] = _cell(np.clip(float(row["latitude"]) + d_lat[i],
                                            -85.0, 85.0))
        if row["longitude"] != "":
            lon = float(np.clip(float(row["longitude"]) + d_lon[i], -175.0, 175.0))
            row["longitude"] = _cell(lon)
            row["time_zone"] = _cell(np.round(lon / 15.0))
        if row["elevation_m"] != "":
            row["elevation_m"] = _cell(float(row["elevation_m"]) + d_elev[i])
        if row["sensor_reading"] != "":
            row["sensor_reading"] = _cell(float(row["sensor_reading"]) + d_read[i])
    for i, c, offset in zip(redraw, new_class, new_offset):
        out[int(i)]["limiting_magnitude"] = _cell(int(c) + float(offset))
    return out


def rewrite_csv(source: Path, dest: Path, seed: int) -> None:
    """Read an observation CSV, add noise, write it with the same header."""
    with open(source, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = list(reader.fieldnames or [])
        rows = list(reader)
    noisy = add_noise(rows, seed)
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(noisy)
