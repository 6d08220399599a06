"""E1 — Fig. 10: overall transmissions vs fraction of nodes in the result.

Paper: SENS-Join reduces overall energy consumption by up to ~80% (33% join
attributes) / up to two-thirds (60%), and stays superior until 60-80% of the
nodes join.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module", params=["33", "60"])
def series(request):
    return run_series(
        f"fig10_{request.param}",
        "savings large at small fractions (paper: up to 80%/66%), "
        "break-even once 60-80% of nodes join",
    )


def test_fig10_shape(series):
    savings = series.column("savings_pct")
    assert savings[0] == max(savings)
    assert savings[0] > 25.0
    assert savings[-1] < savings[0] - 30.0  # clear degradation toward 80%


def test_fig10_benchmark(benchmark, series):
    """Time one SENS-Join execution at the default setting (5% fraction)."""
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
