"""E3 — Fig. 12: savings vs ratio (3 join attributes / x attributes overall).

Paper: savings increase as the ratio decreases; even at a 100% ratio
SENS-Join saves transmissions thanks to the quadtree representation.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "fig12",
        "savings grow as 3/x falls (x: 3 -> 5); still competitive at 100% ratio",
    )


def test_lower_ratio_saves_more(series):
    by_total = dict(zip(series.column("total_attrs"), series.column("savings_pct")))
    assert by_total[5] >= by_total[3]


def test_external_cost_grows_with_attribute_count(series):
    by_total = dict(zip(series.column("total_attrs"), series.column("external_tx")))
    assert by_total[5] > by_total[3]


def test_fig12_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 3, 5, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
