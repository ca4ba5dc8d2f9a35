"""Estimator rules: slice-wise minimum, the percentile rule, the driver's spread."""

import statistics

import pytest

from benchmarks.e2e.estimate import (
    highest_supported_percentile,
    quartile_spread,
    slice_min_sum,
    slice_walls,
)


def test_slice_walls_are_boundary_differences():
    assert slice_walls([1.0, 1.5, 3.0]) == [0.5, 1.5]


def test_slice_min_sum_takes_the_fastest_repetition_of_each_slice():
    # Repetition 0 hit a slow spell on slice 1, repetition 1 on slice 0.
    assert slice_min_sum([[1.0, 9.0, 2.0], [7.0, 3.0, 2.5]]) == 1.0 + 3.0 + 2.0
    # Never more than the best whole repetition.
    assert slice_min_sum([[1.0, 9.0], [7.0, 3.0]]) <= min(10.0, 10.0)


@pytest.mark.parametrize("bad", [[], [[]], [[1.0, 2.0], [1.0]]])
def test_slice_min_sum_rejects_ragged_or_empty_input(bad):
    with pytest.raises(ValueError):
        slice_min_sum(bad)


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (19, 0.0),  # 9.5 beyond the median: not even p50
        (20, 0.5),
        (100, 0.9),  # exactly 10 beyond p90, 1 beyond p99
        (1_000, 0.99),
        (15_000, 0.999),  # one repetition of serve_frozen: 15 beyond p99.9
        (99_999, 0.999),
        (100_000, 0.9999),
    ],
)
def test_highest_percentile_needs_ten_samples_beyond_it(n, expected):
    assert highest_supported_percentile(n) == expected


def test_quartile_spread_matches_the_drivers_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / statistics.median(values)
