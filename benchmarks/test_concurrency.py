"""Beyond the paper — multi-query work sharing under concurrent load.

The paper (§III) feeds SENS-Join one query at a time.  This bench drives a
seeded 16-query workload through the :class:`repro.service.QueryBroker` at
increasing concurrency limits and checks the extension's headline claims:
shared phase-1a collection, composed filters and piggybacked dissemination
save total energy versus serial execution, and batching collapses the tail
latency that queueing inflicts on a serial broker.  Every broker result set
is verified against the serial reference inside the experiment itself, so
the numbers below can only come from exact executions.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.service import BrokerConfig, QueryBroker, QueryRequest

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "concurrency",
        "beyond the paper: energy amortization grows with concurrency; "
        "bursty load benefits most",
    )


def test_sharing_saves_energy_at_high_concurrency(series):
    for row in series.as_dicts():
        if row["concurrency"] >= 8:
            assert row["energy_savings_pct"] > 0, row
            assert row["tx_savings_pct"] > 0, row


def test_sharing_monotone_for_bursty_load(series):
    """More admission headroom can only help a bursty workload."""
    rows = [r for r in series.as_dicts() if r["workload"] == "bursty"]
    savings = {r["concurrency"]: r["energy_savings_pct"] for r in rows}
    assert savings[8] >= savings[1]


def test_batching_cuts_tail_latency_for_bursty_load(series):
    rows = {
        r["concurrency"]: r for r in series.as_dicts() if r["workload"] == "bursty"
    }
    assert rows[8]["p95_latency_s"] < rows[1]["p95_latency_s"]


def test_every_query_completes(series):
    for row in series.as_dicts():
        assert row["queries"] == 16, row
        assert row["batches"] >= 1
        assert 0 < row["p50_latency_s"] <= row["p95_latency_s"]


def test_concurrency_benchmark(benchmark, series):
    """Time one shared 8-query batch end to end."""
    scenario = build_scenario(150, seed=0)
    query = calibrated_query(scenario, 1, 3, 0.05)
    requests = [
        QueryRequest(query_id=i, arrival_s=0.0, template_index=0, query=query)
        for i in range(8)
    ]
    broker = QueryBroker(
        scenario.network,
        scenario.world,
        BrokerConfig(concurrency=8),
        tree=scenario.tree,
    )
    benchmark(lambda: broker.run(requests))
