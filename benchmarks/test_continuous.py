"""E12 — continuous queries with temporal suppression (§VIII future work).

Beyond the paper's evaluation: the incremental executor's steady-state
per-round cost vs repeated snapshot executions, across drift rates.  Slow
drift -> large savings (quantized points rarely move); fast drift -> the
advantage degrades gracefully toward the snapshot cost.
"""

import pytest

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "continuous",
        "steady-state saving largest at slow drift, degrading with drift rate",
    )


def test_slow_drift_saves_substantially(series):
    rows = series.as_dicts()
    assert rows[0]["steady_saving_pct"] > 25.0


def test_savings_degrade_with_drift(series):
    savings = series.column("steady_saving_pct")
    assert savings == sorted(savings, reverse=True)


def test_round0_pays_snapshot_like_cost(series):
    for row in series.as_dicts():
        assert row["round0_tx"] >= row["steady_tx"]


def test_continuous_benchmark(benchmark, series):
    """Time one steady-state incremental round."""
    from repro.data.relations import SensorWorld
    from repro.joins.incremental import IncrementalSensJoin
    from repro.query.parser import parse_query
    from repro.sim.network import DeploymentConfig, deploy_uniform

    network = deploy_uniform(DeploymentConfig(node_count=300, area_side_m=470.0, seed=9))
    world = SensorWorld.homogeneous(
        network, seed=9, area_side_m=470.0, drift_rate=0.0001
    )
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 23.7 SAMPLE PERIOD 60"
    )
    executor = IncrementalSensJoin(network, world, query, tree_seed=9)
    executor.run_round(0.0)
    round_counter = iter(range(1, 100000))

    benchmark(lambda: executor.run_round(next(round_counter) * 60.0))
