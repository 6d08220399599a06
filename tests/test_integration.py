"""End-to-end property tests across the whole stack.

The central theorem of the reproduction: for *any* deployment, data, query
and configuration, SENS-Join computes exactly the external join's result
(quantization is conservative, Treecut/proxying loses nothing, filter
pruning keeps every subtree point).  Hypothesis drives deployments and
queries through the full pipeline.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.relations import SensorWorld
from repro.joins.external import ExternalJoin
from repro.joins.runner import run_snapshot
from repro.joins.sensjoin import SensJoin, SensJoinConfig
from repro.query.parser import parse_query
from repro.sim.network import DeploymentConfig, deploy_uniform

CONDITIONS = [
    "A.temp - B.temp > {t}",
    "|A.temp - B.temp| < {t} AND distance(A.x, A.y, B.x, B.y) > 150",
    "A.temp - B.temp > {t} AND A.hum < 70",
    "A.temp + B.temp > 2 * {t}",
    "A.temp - B.temp > {t} OR B.light - A.light > 400",
]


@st.composite
def scenario_params(draw):
    seed = draw(st.integers(min_value=0, max_value=30))
    condition = draw(st.sampled_from(CONDITIONS))
    threshold = draw(
        st.floats(min_value=0.1, max_value=4.0).map(lambda x: round(x, 2))
    )
    dmax = draw(st.sampled_from([0, 10, 30, 45]))
    limit = draw(st.sampled_from([0, 120, 500]))
    return seed, condition, threshold, dmax, limit


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario_params())
def test_sens_join_always_exact(params):
    seed, condition, threshold, dmax, limit = params
    config = DeploymentConfig(node_count=90, area_side_m=257.0, seed=seed)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(network, seed=seed, area_side_m=257.0)
    sql = (
        "SELECT A.hum, B.hum FROM sensors A, sensors B WHERE "
        + condition.format(t=threshold)
        + " ONCE"
    )
    query = parse_query(sql)
    external = run_snapshot(network, world, query, ExternalJoin(), tree_seed=seed)
    sens = run_snapshot(
        network,
        world,
        query,
        SensJoin(SensJoinConfig(dmax_bytes=dmax, subtree_limit_bytes=limit)),
        tree_seed=seed,
    )
    assert external.result.signature() == sens.result.signature()


def test_accounting_consistency(small_network, small_world, tail_query):
    """Invariant 7: per-node counters sum to the totals."""
    outcome = run_snapshot(small_network, small_world, tail_query(1.5), tree_seed=11)
    stats = outcome.stats
    per_node_total = sum(
        stats.node_tx_packets(node_id) for node_id in small_network.node_ids
    )
    assert per_node_total == stats.total_tx_packets()
    per_phase_total = sum(stats.tx_packets_by_phase().values())
    assert per_phase_total == stats.total_tx_packets()


def test_energy_consistent_with_packets(tail_query):
    """Every node's energy is exactly its recorded traffic, priced by the model.

    Run under loss so retransmissions are priced too.  The default prices
    are binary fractions, so the sums are exact and ``==`` is the check.
    """
    config = DeploymentConfig(node_count=200, area_side_m=383.0, seed=11, loss_rate=0.2)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(network, seed=11, area_side_m=config.area_side_m)
    outcome = run_snapshot(network, world, tail_query(1.5), tree_seed=11)
    stats = outcome.stats
    assert stats.total_retx_packets() > 0
    model = network.energy_model
    loads = {load.node_id: load for load in stats.per_node_loads({})}
    spent = network.energy_by_node()
    assert set(spent) == set(network.nodes) >= set(loads)
    for node_id, energy in spent.items():
        load = loads.get(node_id)
        if load is None:
            assert energy == 0.0
            continue
        assert energy == (
            model.tx_per_packet * (load.tx_packets + load.retx_packets)
            + model.tx_per_byte * (load.tx_bytes + load.retx_bytes)
            + model.rx_per_packet * load.rx_packets
            + model.rx_per_byte * load.rx_bytes
        )
    assert network.total_energy() == sum(spent.values())
    assert network.total_energy() > 0


def test_snapshot_isolation_between_algorithms(small_network, small_world, tail_query):
    """Both algorithms must see the same snapshot for fair comparison."""
    query = tail_query(1.5)
    a = run_snapshot(small_network, small_world, query, "external-join", tree_seed=11)
    b = run_snapshot(small_network, small_world, query, "external-join", tree_seed=11)
    assert a.result.signature() == b.result.signature()
    assert a.total_transmissions == b.total_transmissions
