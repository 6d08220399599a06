"""E4 — Fig. 13: savings vs ratio (1 join attribute / x attributes overall).

Paper: same trend as Fig. 12 at the other end of the spectrum; the x = 1
point is the worst case (100% ratio) and bounds the savings from below.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "fig13",
        "savings grow as 1/x falls (x: 1 -> 5); x=1 is the lower bound",
    )


def test_more_attributes_more_savings(series):
    by_total = dict(zip(series.column("total_attrs"), series.column("savings_pct")))
    assert by_total[5] > by_total[1]
    assert by_total[3] >= by_total[1]


def test_worst_case_not_catastrophic(series):
    by_total = dict(zip(series.column("total_attrs"), series.column("savings_pct")))
    assert by_total[1] > -25.0


def test_fig13_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 1, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
