"""§IV-E — join-location analysis: is the base station really optimal?

The paper fixes both computations at the base station based on a byte-hops
cost analysis [20].  This bench evaluates that analysis on the filtered
workloads: at every result fraction the base station must beat the best
in-network mediator, because the post-filter join result is at least as
large as its input.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.placement import analyze_join_location

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "placement",
        "base station optimal at every fraction once the filter applied",
    )


def test_base_station_always_optimal_post_filter(series):
    for row in series.as_dicts():
        assert row["bs_optimal"] == "True", row


def test_result_rows_exceed_inputs(series):
    """The §IV-E intuition itself: filtered selectivity is low."""
    for row in series.as_dicts():
        if row["fraction"] >= 0.2:
            assert row["result_rows"] >= row["filtered_inputs"]


def test_placement_benchmark(benchmark, series):
    scenario = build_scenario()
    contributors = scenario.network.sensor_node_ids[:50]
    benchmark(
        lambda: analyze_join_location(
            scenario.network, contributors, tuple_bytes=6,
            result_rows=100, result_row_bytes=4,
        )
    )
