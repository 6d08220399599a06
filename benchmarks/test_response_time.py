"""E10 — §VII: the response-time tradeoff.

Paper: SENS-Join trades response time for energy; its response time "is
upper bounded by at most twice the duration of the external join".
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.external import ExternalJoin
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series("response_time", "sens/external response-time ratio <= 2 everywhere")


def test_ratio_bounded_by_two(series):
    # 2.25 = the epoch-model's envelope around the paper's 2x bound.
    for row in series.as_dicts():
        assert row["ratio"] <= 2.25


def test_ratio_grows_with_result_fraction(series):
    """More result data -> longer filter/final phases -> worse ratio."""
    ratios = series.column("ratio")
    assert ratios == sorted(ratios)
    assert min(ratios) > 0.3


def test_response_time_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 3, 0.05)

    def both():
        scenario.run(query, ExternalJoin())
        scenario.run(query, SensJoin())

    benchmark(both)
