"""Selectivity calibration tests."""

import pytest

from repro.bench.calibrate import calibrate_threshold, measure_result_fraction
from repro.query.parser import parse_query


def query_for(threshold):
    return parse_query(
        f"SELECT A.hum, B.hum FROM sensors A, sensors B "
        f"WHERE A.temp - B.temp > {threshold} ONCE"
    )


def test_measure_fraction_bounds(small_world):
    everything = measure_result_fraction(small_world, query_for(-999))
    nothing = measure_result_fraction(small_world, query_for(999))
    assert everything == 1.0
    assert nothing == 0.0


def test_fraction_monotone_in_threshold(small_world):
    fractions = [
        measure_result_fraction(small_world, query_for(t)) for t in (0.5, 1.5, 3.0)
    ]
    assert fractions == sorted(fractions, reverse=True)


def test_calibration_hits_target(small_world):
    threshold, achieved = calibrate_threshold(
        small_world, query_for, target_fraction=0.10, lo=0.0, hi=10.0, increasing=False,
        tolerance=0.02,
    )
    assert abs(achieved - 0.10) <= 0.02
    # Verify independently.
    assert measure_result_fraction(small_world, query_for(threshold)) == pytest.approx(
        achieved
    )


def test_calibration_validates_inputs(small_world):
    with pytest.raises(ValueError):
        calibrate_threshold(small_world, query_for, 1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        calibrate_threshold(small_world, query_for, 0.5, 2.0, 1.0)


def test_calibration_returns_best_effort(small_world):
    # An unreachable target (fraction between two achievable steps with a
    # tiny tolerance) still returns the closest achieved value.
    threshold, achieved = calibrate_threshold(
        small_world, query_for, target_fraction=0.07, lo=0.0, hi=10.0,
        increasing=False, tolerance=0.0, max_iterations=12,
    )
    assert 0.0 <= achieved <= 1.0
