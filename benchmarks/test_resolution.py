"""§V-B — sensitivity to the quantization resolution.

Paper: "the performance of SENS-Join is insensitive to the resolution used
for the pre-computation as long as it is not too coarse", and footnote 2:
coarse resolutions produce false positives (never wrong results).
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "resolution",
        "plateau through ~0.5 degC; cost + false positives rise when coarse; "
        "always exact",
    )


def test_exact_at_every_resolution(series):
    for row in series.as_dicts():
        assert row["identical"] == "True", row


def test_plateau_around_paper_resolution(series):
    """0.02..0.1 degC must cost within a few percent of each other."""
    by_resolution = {row["resolution_degC"]: row["sens_tx"] for row in series.as_dicts()}
    fine = [by_resolution[r] for r in (0.02, 0.05, 0.1)]
    assert max(fine) <= min(fine) * 1.05


def test_too_coarse_costs_more(series):
    by_resolution = {row["resolution_degC"]: row["sens_tx"] for row in series.as_dicts()}
    assert by_resolution[4.0] > by_resolution[0.1]


def test_false_positives_grow_with_coarseness(series):
    fps = series.column("false_positives")
    assert fps[-1] > fps[0]


def test_finer_resolution_needs_more_bits(series):
    bits = series.column("temp_bits")
    assert bits == sorted(bits, reverse=True)


def test_resolution_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
