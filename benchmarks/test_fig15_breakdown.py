"""E6 — Fig. 15: SENS-Join cost broken down by protocol step.

Paper: Join-Attribute-Collection is a constant lower bound (depends only on
the join attributes); Filter-Dissemination and Final-Result grow with the
fraction of nodes in the result.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "fig15",
        "collection cost constant in the fraction; filter + final grow with it",
    )


def test_collection_cost_constant(series):
    collection = series.column("collection_tx")
    assert len(set(collection)) == 1


def test_final_phase_grows_with_fraction(series):
    final = series.column("final_tx")
    assert final == sorted(final)
    assert final[-1] > final[0]


def test_filter_phase_grows_with_fraction(series):
    filter_tx = series.column("filter_tx")
    assert filter_tx[-1] >= filter_tx[0]


def test_phases_sum_to_total(series):
    for row in series.as_dicts():
        assert row["collection_tx"] + row["filter_tx"] + row["final_tx"] == row["sens_total"]


def test_fig15_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 3, 5, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
