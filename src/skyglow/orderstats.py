"""Order statistics by sorting: the distinct values, a linear-interpolation
quantile and the median of a 1-D array, each the value numpy returns, bit
for bit, signed zeros included.

numpy 2.4's own `np.unique` (without inverse, index or counts),
`np.quantile` and `np.median` import `numpy.ma` on their first call, about
15 ms of a fitting stage's start-up. These copies take numpy's own route to
the answer with no masked-array check: the same `np.partition` call (same
kth list, so the same element lands at each index, even among equal
values such as -0.0 and 0.0), then the same arithmetic. Inputs are finite:
numpy's NaN handling is not copied.
"""

from __future__ import annotations

import math

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as `np.unique(values)`.

    A float array takes numpy's own path, a quicksort and the first value
    of each run of equal ones, so of -0.0 and 0.0 the one that sorts first
    is kept, as in `np.unique`. For integers numpy hashes, then sorts; the
    values are the same.
    """
    ranked = np.sort(values, axis=None)
    keep = np.empty(ranked.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=keep[1:])
    return ranked[keep]


def quantile(values: np.ndarray, q: float) -> float:
    """`np.quantile(values, q)` (method 'linear') of a nonempty 1-D array of
    finite floats, for a float `q` in [0, 1].

    The virtual index is (n - 1) q; at or past the last index both
    neighbours are the last value and the weight is its distance from -1,
    as in numpy. numpy's `_lerp` adds `diff * t` to the lower value, or,
    when t >= 0.5, subtracts `diff * (1 - t)` from the upper one.
    """
    n = len(values)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    part = np.partition(values, sorted({0, -1, below, above}))
    low, high = part[below], part[above]
    t = virtual - below
    diff = high - low
    if t >= 0.5:
        return float(high - diff * (1 - t))
    return float(low + diff * t)


def median(values: np.ndarray) -> float:
    """`np.median(values)` of a nonempty 1-D array of finite floats: the
    mean of the middle one or two values, summed from +0.0 as numpy's
    mean is."""
    n = len(values)
    half = n // 2
    if n % 2:
        part = np.partition(values, [(n - 1) // 2, -1])
        return float(0.0 + part[half])
    part = np.partition(values, [half - 1, half, -1])
    return float((0.0 + part[half - 1] + part[half]) / 2)
