"""The sort-based order statistics against numpy itself, bit for bit:
`quantile` against `np.quantile`, `median` against `np.median` and
`sorted_unique` against `np.unique`, on short arrays, ties, integer-valued
floats, extreme magnitudes and both orders of -0.0 and 0.0."""

import numpy as np
import pytest

from skyglow.orderstats import median, quantile, sorted_unique

TINY = 5e-324
HUGE = np.finfo(float).max

CASES = {
    "one": [2.5],
    "one_negative_zero": [-0.0],
    "one_zero": [0.0],
    "two": [2.0, 1.0],
    "two_zeros": [-0.0, 0.0],
    "two_zeros_reversed": [0.0, -0.0],
    "two_negative_zeros": [-0.0, -0.0],
    "ties": [3.0, 1.0, 3.0, 3.0, 2.0, 1.0, 3.0],
    "integer_valued": [float(v) for v in range(7, -6, -1)],
    "extremes": [HUGE, -HUGE, TINY, -TINY, 0.0, -0.0, 1e-300],
    "huge_pair": [HUGE, HUGE],
    "subnormal_ties": [TINY, TINY, -TINY, 0.0],
    "zeros_around_signs": [-0.0, 1.0, 0.0, -1.0, -0.0, 0.0, 0.0, -0.0],
}
LEVELS = (0.0, 1.0, 0.5, 0.01, 0.99, 0.25, 0.75, 1 / 3)


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def zero_arrays(rng, count):
    """Arrays of -0.0 and 0.0 in random orders, with and without other
    values, of lengths 1 to 40."""
    for i in range(count):
        values = rng.choice([-0.0, 0.0], size=int(rng.integers(1, 41)))
        if i % 2:
            values[rng.random(len(values)) < 0.3] = rng.choice([-1.0, 1.0])
        yield values


def random_arrays(rng, count):
    for _ in range(count):
        n = int(rng.integers(1, 60))
        scale = 10.0 ** int(rng.integers(-300, 300))
        yield rng.normal(size=n) * scale
        yield rng.integers(-3, 4, size=n).astype(float)


@pytest.mark.parametrize("name", CASES)
def test_quantile_and_median_match_numpy(name):
    values = np.array(CASES[name])
    with np.errstate(all="ignore"):
        for q in LEVELS:
            assert same_bits(quantile(values, q),
                             float(np.quantile(values, q))), q
        assert same_bits(median(values), float(np.median(values)))
    assert np.array_equal(values, np.array(CASES[name]))  # input untouched


def test_quantile_and_median_match_numpy_on_random_arrays():
    rng = np.random.default_rng(26)
    arrays = [*zero_arrays(rng, 400), *random_arrays(rng, 200)]
    with np.errstate(all="ignore"):
        for values in arrays:
            for q in (*LEVELS, float(rng.random())):
                assert same_bits(quantile(values, q),
                                 float(np.quantile(values, q))), (values, q)
            assert same_bits(median(values), float(np.median(values))), values


@pytest.mark.parametrize("name", CASES)
def test_sorted_unique_matches_numpy(name):
    values = np.array(CASES[name])
    assert sorted_unique(values).tobytes() == np.unique(values).tobytes()


def test_sorted_unique_matches_numpy_on_random_arrays():
    rng = np.random.default_rng(27)
    for values in [*zero_arrays(rng, 400), *random_arrays(rng, 200)]:
        assert sorted_unique(values).tobytes() == np.unique(values).tobytes()
    for values in (np.array([], dtype=float), np.array([], dtype=np.int64),
                   rng.integers(-1, 5, size=300), np.array([7, -1, 7])):
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)
