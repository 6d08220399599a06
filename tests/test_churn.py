"""Churn-resilience tests: the churn model, tree self-healing, broker ladder.

The load-bearing guarantees under test:

* a :class:`~repro.sim.faults.ChurnModel` is pure data — materializing it
  against the same topology always yields the same :class:`FaultPlan`, and
  both round-trip exactly through their JSON forms;
* :func:`~repro.routing.ctp.reattach_tree` heals departures *incrementally*:
  orphaned subtrees graft onto surviving neighbours, rejoined nodes are
  adopted, every edge of the healed tree is a live radio link, and the
  beacon cost is charged to the energy ledger;
* under continuous churn the :class:`~repro.service.broker.QueryBroker`
  terminates every admitted query with a recall-stamped outcome whose
  result set is a subset of the pre-churn lossless oracle, and identical
  seeds replay to identical reports.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.joins.base import ExecutionContext, oracle_result
from repro.query.parser import parse_query
from repro.routing.ctp import build_tree, reattach_tree
from repro.service import BrokerConfig, DeadlinePolicy, QueryBroker, QueryRequest
from repro.sim.faults import (
    LOSS_BURST,
    NODE_CRASH,
    NODE_MOVE,
    NODE_REJOIN,
    ChurnModel,
    Fault,
    FaultPlan,
)
from repro.sim.network import BASE_STATION_ID


def _tail(threshold: float):
    return parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        f"WHERE A.temp - B.temp > {threshold} ONCE"
    )


@pytest.fixture()
def deployment(make_deployment):
    """Fresh per test: churn and repairs mutate the topology."""
    network, world = make_deployment(node_count=60, seed=2, area_side_m=210.0)
    tree = build_tree(network, seed=2)
    return network, world, tree


# -- churn model --------------------------------------------------------------


MODEL = ChurnModel(
    departure_rate=0.5,
    rejoin_delay_s=0.4,
    rejoin_jitter_m=8.0,
    move_rate=0.2,
    move_step_m=15.0,
    horizon_s=2.0,
    seed=11,
)


def test_churn_model_materializes_deterministically(deployment):
    network = deployment[0]
    first = MODEL.materialize(network)
    second = MODEL.materialize(network)
    assert list(first) == list(second)
    reseeded = ChurnModel(
        departure_rate=0.5, rejoin_delay_s=0.4, rejoin_jitter_m=8.0,
        move_rate=0.2, move_step_m=15.0, horizon_s=2.0, seed=12,
    ).materialize(network)
    assert list(first) != list(reseeded)


def test_churn_model_round_trips_through_json(deployment):
    assert ChurnModel.from_dict(MODEL.to_dict()) == MODEL
    plan = MODEL.materialize(deployment[0])
    assert plan, "the model should generate at least one fault"
    assert list(FaultPlan.from_dict(plan.to_dict())) == list(plan)


def test_disabled_model_is_falsy_and_empty(deployment):
    quiet = ChurnModel()
    assert not quiet
    assert not quiet.materialize(deployment[0])
    assert ChurnModel.from_departure_fraction(0.0) == ChurnModel()


def test_rejoins_follow_their_departures(deployment):
    network = deployment[0]
    plan = MODEL.materialize(network)
    departures = {f.node_a: f.time_s for f in plan if f.kind == NODE_CRASH}
    rejoins = [f for f in plan if f.kind == NODE_REJOIN]
    assert departures and rejoins
    for fault in rejoins:
        assert fault.node_a in departures
        assert fault.time_s > departures[fault.node_a]
        node = network.nodes[fault.node_a]
        assert abs(fault.x - node.x) <= MODEL.rejoin_jitter_m
        assert abs(fault.y - node.y) <= MODEL.rejoin_jitter_m


def test_departure_cap_respected(deployment):
    network = deployment[0]
    flood = ChurnModel(
        departure_rate=50.0, horizon_s=2.0, seed=3, max_departed_fraction=0.25
    )
    plan = flood.materialize(network)
    crashed = {f.node_a for f in plan if f.kind == NODE_CRASH}
    assert len(crashed) <= int(0.25 * len(network.sensor_node_ids)) + 1
    assert BASE_STATION_ID not in crashed


def test_from_departure_fraction_validation():
    with pytest.raises(ValueError):
        ChurnModel.from_departure_fraction(1.0)
    with pytest.raises(ValueError):
        ChurnModel(departure_rate=-1.0)
    with pytest.raises(ValueError):
        ChurnModel(move_rate=0.1)  # mobility needs move_step_m


# -- incremental tree self-healing -------------------------------------------


def _assert_valid_tree(network, tree):
    """Every alive sensor is attached and every edge is a live link."""
    alive = set(network.sensor_node_ids)
    assert set(tree.node_ids) == alive | {BASE_STATION_ID}
    for node_id in alive:
        assert network.link_up(node_id, tree.parent(node_id))


def test_reattach_after_single_departure(deployment):
    network, _, tree = deployment
    victim = next(n for n in tree.node_ids if n != tree.root and not tree.is_leaf(n))
    orphans = set(tree.children(victim))
    energy_before = network.total_energy()
    network.fail_node(victim)
    report = reattach_tree(network, tree, seed=2)
    _assert_valid_tree(network, report.tree)
    assert orphans <= report.reattached
    assert not report.orphaned
    assert report.beacons > 0
    assert network.total_energy() > energy_before, "repair beacons must be charged"


def test_reattach_after_cascading_departures(deployment):
    network, _, tree = deployment
    victims = [n for n in tree.node_ids if n != tree.root and not tree.is_leaf(n)][:3]
    for victim in victims:
        network.fail_node(victim)
    report = reattach_tree(network, tree, seed=2)
    _assert_valid_tree(network, report.tree)
    # Surviving parent links are kept verbatim — the repair is localized.
    for node_id in network.sensor_node_ids:
        if node_id not in report.reattached:
            assert report.tree.parent(node_id) == tree.parent(node_id)


def test_reattach_adopts_rejoined_node_at_new_position(deployment):
    network, _, tree = deployment
    victim = network.sensor_node_ids[5]
    node = network.nodes[victim]
    network.fail_node(victim)
    healed = reattach_tree(network, tree, seed=2).tree
    assert victim not in healed
    network.revive_node(victim, x=node.x + 12.0, y=node.y - 9.0)
    report = reattach_tree(network, healed, seed=2)
    assert victim in report.adopted
    _assert_valid_tree(network, report.tree)


def test_reattach_is_deterministic(deployment):
    network, _, tree = deployment
    victims = [n for n in tree.node_ids if n != tree.root][:4]
    for victim in victims:
        network.fail_node(victim)
    first = reattach_tree(network, tree, seed=2)
    second = reattach_tree(network, tree, seed=2)
    for node_id in network.sensor_node_ids:
        assert first.tree.parent(node_id) == second.tree.parent(node_id)
    assert first.beacons == second.beacons


# -- broker under continuous churn -------------------------------------------


CHURN = ChurnModel.from_departure_fraction(
    0.2, horizon_s=4.0, seed=5, rejoin_delay_s=1.0, rejoin_jitter_m=10.0
)


def _workload(count=8):
    templates = [_tail(1.0), _tail(1.6), _tail(0.8)]
    return [
        QueryRequest(
            query_id=i, arrival_s=0.4 * i, template_index=i % 3,
            query=templates[i % 3],
        )
        for i in range(count)
    ]


def _run_churned(make_deployment, concurrency=8):
    network, world = make_deployment(node_count=60, seed=2, area_side_m=210.0)
    tree = build_tree(network, seed=2)
    broker = QueryBroker(
        network, world,
        BrokerConfig(
            concurrency=concurrency,
            share_work=concurrency > 1,
            deadline=DeadlinePolicy(seed=5),
        ),
        tree=tree, tree_seed=2, churn=CHURN,
    )
    return network, world, tree, broker.run(_workload())


def test_churned_broker_terminates_every_query(make_deployment):
    _, _, _, report = _run_churned(make_deployment)
    assert len(report.outcomes) == 8
    for outcome in report.outcomes:
        assert outcome.status in ("completed", "degraded", "shed")
        assert 0.0 <= outcome.recall <= 1.0
        assert outcome.attempts >= 1
    details = report.details
    assert details["churn_faults_applied"] > 0
    assert details["completed"] + details["degraded"] + details["shed"] == 8
    assert details["min_recall"] <= details["mean_recall"]


def test_churned_results_are_subsets_with_exact_recall(make_deployment):
    # The oracle is fixed pre-churn on an identical twin deployment (the
    # broker's own network mutates as faults land).
    network, world = make_deployment(node_count=60, seed=2, area_side_m=210.0)
    tree = build_tree(network, seed=2)
    world.take_snapshot(0.0)
    oracles = {}
    for request in _workload():
        context = ExecutionContext(
            network=network, tree=tree, world=world, query=request.query
        )
        oracles[request.query_id] = oracle_result(context)
    _, _, _, report = _run_churned(make_deployment)
    for outcome in report.outcomes:
        oracle = oracles[outcome.request.query_id]
        got = set(outcome.result.combinations)
        want = set(oracle.combinations)
        assert got <= want, "churn must lose matches, never invent them"
        expected = len(got & want) / oracle.match_count if oracle.match_count else 1.0
        assert outcome.recall == pytest.approx(expected)
        assert (outcome.status == "completed") == (outcome.recall == pytest.approx(1.0))


def test_churned_broker_replays_identically(make_deployment):
    def fingerprint(report):
        return [
            (
                o.request.query_id, o.status, o.attempts, o.completed_s,
                o.recall, o.energy_share_j, o.tx_share_packets,
                tuple(sorted(o.result.combinations)),
            )
            for o in report.outcomes
        ] + [tuple(sorted(report.details.items()))]

    first = _run_churned(make_deployment)[3]
    second = _run_churned(make_deployment)[3]
    assert fingerprint(first) == fingerprint(second)


def test_zero_churn_resilient_path_matches_plain_broker(make_deployment):
    """DeadlinePolicy alone (no churn) must not change any answer."""
    network, world = make_deployment(node_count=60, seed=2, area_side_m=210.0)
    tree = build_tree(network, seed=2)
    requests = _workload()
    plain = QueryBroker(
        network, world, BrokerConfig(concurrency=4), tree=tree
    ).run(requests)
    resilient = QueryBroker(
        network, world,
        BrokerConfig(concurrency=4, deadline=DeadlinePolicy(seed=5)),
        tree=tree, tree_seed=2,
    ).run(requests)
    for ref, out in zip(plain.outcomes, resilient.outcomes):
        assert out.result_set() == ref.result_set()
        assert out.status == "completed"
        assert out.recall == 1.0


def test_broker_crash_of_unknown_node_raises(deployment):
    """The broker applies churn through the injector's applier: a fault on
    a node the deployment lacks is an error, not a silent no-op."""
    network, world, tree = deployment
    plan = FaultPlan([Fault(time_s=0.0, kind=NODE_CRASH, node_a=99999)])
    broker = QueryBroker(network, world, BrokerConfig(), tree=tree, churn=plan)
    with pytest.raises(SimulationError, match="unknown node 99999"):
        broker.run(_workload())


def test_broker_rejects_loss_burst_plans(deployment):
    network, world, tree = deployment
    plan = FaultPlan([Fault(time_s=0.1, kind=LOSS_BURST, duration_s=0.5, loss_rate=0.9)])
    with pytest.raises(ValueError):
        QueryBroker(network, world, BrokerConfig(), tree=tree, churn=plan)


def test_fault_positions_round_trip():
    fault = Fault(time_s=0.25, kind=NODE_MOVE, node_a=7, x=12.5, y=-3.0)
    assert list(FaultPlan.from_dict(FaultPlan([fault]).to_dict())) == [fault]
    with pytest.raises(ValueError):
        Fault(time_s=0.1, kind=NODE_MOVE, node_a=7)  # position is mandatory
