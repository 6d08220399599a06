"""E2 — Fig. 11: per-node transmissions vs number of descendants.

Paper: the most loaded nodes are relieved by more than an order of magnitude
(33% join attributes) / by more than 75% (60%).
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.external import ExternalJoin

from conftest import run_series


@pytest.fixture(scope="module", params=["33", "60"])
def series(request):
    return run_series(
        f"fig11_{request.param}",
        "most-loaded node relieved >10x at ratio 33%, >75% (4x) at 60%",
    )


def test_most_loaded_node_strongly_relieved(series):
    last = series.rows[-1]
    assert last[0] == "most-loaded"
    external_max, sens_max, reduction = last[2], last[3], last[4]
    assert external_max > sens_max
    assert reduction >= 2.0


def test_load_grows_with_descendants_for_external(series):
    # External join: more descendants => more forwarding load.
    data_rows = [row for row in series.rows if row[0] != "most-loaded"]
    means = [row[2] for row in data_rows]
    assert means[-1] > means[0]


def test_fig11_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, ExternalJoin()))
