"""In-flight fault injection and mid-query recovery on the DES engine (§IV-F).

The acceptance scenario: a node crashes mid-collection, the base station
detects the stall via its phase watchdog, CTP repairs the tree, the query
re-executes on the same kernel timeline, and the outcome accounts for the
aborted attempt's cost and the completeness of the delivered result.
"""

import pytest

from repro.data.relations import SensorWorld
from repro.errors import ExecutionAborted
from repro.joins.base import ExecutionContext, oracle_result
from repro.joins.des_sensjoin import DesSensJoin, RecoveryPolicy
from repro.joins.runner import run_snapshot
from repro.joins.sensjoin import PHASE_COLLECTION
from repro.obs.telemetry import Telemetry
from repro.routing.ctp import build_tree
from repro.sim.faults import Fault, FaultPlan, LOSS_BURST, NODE_CRASH
from repro.sim.network import DeploymentConfig, deploy_uniform
from repro.sim.node import BASE_STATION_ID
from repro.sim.trace import FAULT_INJECT, PHASE_TIMEOUT, TREE_REPAIR, ListTracer

SIDE = 332.0
SEED = 21

#: Before the first send of phase 1a (serialisation takes ~20 ms/packet),
#: i.e. genuinely mid-collection: the victim dies holding its subtree's data.
EARLY_CRASH_S = 0.001


def fresh_deployment(node_count=150, seed=SEED):
    config = DeploymentConfig(node_count=node_count, area_side_m=SIDE, seed=seed)
    network = deploy_uniform(config)
    world = SensorWorld.homogeneous(network, seed=seed, area_side_m=SIDE)
    tree = build_tree(network, seed=seed)
    return network, world, tree


def subtree_size(tree, root):
    count = 1
    for child in tree.children(root):
        count += subtree_size(tree, child)
    return count


def pick_victim(tree):
    """The base-station child with the largest subtree: its crash severs
    the most data and is guaranteed to starve the collection phase."""
    return max(tree.children(BASE_STATION_ID), key=lambda c: subtree_size(tree, c))


class TestMidCollectionCrash:
    @pytest.fixture()
    def recovered(self, tail_query):
        network, world, tree = fresh_deployment()
        victim = pick_victim(tree)
        plan = FaultPlan((Fault(EARLY_CRASH_S, NODE_CRASH, node_a=victim),))
        tracer = ListTracer()
        engine = DesSensJoin(fault_plan=plan, repair_seed=SEED)
        world.take_snapshot(0.0)
        oracle = oracle_result(
            ExecutionContext(network=network, tree=tree, world=world, query=tail_query(1.0))
        )
        outcome = run_snapshot(
            network, world, tail_query(1.0), engine, tree=tree, tree_seed=SEED,
            telemetry=Telemetry(tracer=tracer),
        )
        return network, victim, tracer, oracle, outcome

    def test_detects_repairs_and_completes(self, recovered):
        network, victim, tracer, oracle, outcome = recovered
        assert outcome.details["partial"] == 0.0  # completed, not degraded
        assert outcome.details["retries"] >= 1.0
        assert outcome.details["repairs"] >= 1.0
        assert outcome.details["faults_applied"] == 1.0
        assert not network.nodes[victim].alive

    def test_trace_tells_the_recovery_story(self, recovered):
        _, victim, tracer, _, _ = recovered
        injected = tracer.filter(kind=FAULT_INJECT)
        assert [e.node_id for e in injected] == [victim]
        timeouts = tracer.filter(kind=PHASE_TIMEOUT)
        assert timeouts and timeouts[0].node_id == BASE_STATION_ID
        assert timeouts[0].detail["phase"] == PHASE_COLLECTION
        assert timeouts[0].detail["waiting"] >= 1
        repairs = tracer.filter(kind=TREE_REPAIR)
        assert repairs
        # The story unfolds in order: inject, then timeout, then repair.
        assert injected[0].time <= timeouts[0].time <= repairs[0].time

    def test_aborted_attempt_cost_is_charged(self, recovered):
        network, _, _, _, outcome = recovered
        assert outcome.details["aborted_tx_packets"] > 0
        assert outcome.details["aborted_energy"] > 0.0
        # The aborted share stays in the cumulative ledgers and stats.
        assert network.total_energy() >= outcome.details["aborted_energy"]
        assert outcome.stats.total_tx_packets() > outcome.details["aborted_tx_packets"]

    def test_completeness_accounting(self, recovered, tail_query):
        _, victim, _, oracle, outcome = recovered
        assert outcome.details["recall"] == pytest.approx(
            outcome.result.match_count / oracle.match_count
        )
        assert 0.0 < outcome.details["recall"] <= 1.0
        assert victim not in outcome.result.all_contributing_nodes()
        if victim in oracle.all_contributing_nodes():
            assert outcome.details["recall"] < 1.0
        assert outcome.details["subtrees_delivered"] <= outcome.details["subtrees_total"]
        assert outcome.details["subtrees_total"] >= 1.0


def test_deterministic_for_fixed_plan(tail_query):
    outcomes = []
    for _ in range(2):
        network, world, tree = fresh_deployment()
        victim = pick_victim(tree)
        plan = FaultPlan((Fault(EARLY_CRASH_S, NODE_CRASH, node_a=victim),))
        engine = DesSensJoin(fault_plan=plan, repair_seed=SEED)
        outcomes.append(
            run_snapshot(network, world, tail_query(1.0), engine, tree=tree, tree_seed=SEED)
        )
    first, second = outcomes
    assert first.details == second.details
    assert first.result.signature() == second.result.signature()
    assert first.stats.total_tx_packets() == second.stats.total_tx_packets()
    assert first.response_time_s == second.response_time_s


def test_empty_plan_matches_plain_engine(tail_query):
    network_a, world_a, tree_a = fresh_deployment()
    plain = run_snapshot(
        network_a, world_a, tail_query(1.0), DesSensJoin(), tree=tree_a, tree_seed=SEED
    )
    network_b, world_b, tree_b = fresh_deployment()
    with_empty = run_snapshot(
        network_b, world_b, tail_query(1.0),
        DesSensJoin(fault_plan=FaultPlan.empty()), tree=tree_b, tree_seed=SEED,
    )
    assert plain.result.signature() == with_empty.result.signature()
    assert plain.per_phase_transmissions() == with_empty.per_phase_transmissions()
    assert plain.response_time_s == with_empty.response_time_s
    assert "retries" not in with_empty.details  # legacy path, no recovery keys


def test_graceful_degradation_returns_partial(tail_query):
    network, world, tree = fresh_deployment()
    victim = pick_victim(tree)
    plan = FaultPlan((Fault(EARLY_CRASH_S, NODE_CRASH, node_a=victim),))
    engine = DesSensJoin(
        fault_plan=plan,
        recovery=RecoveryPolicy(max_retries=0, on_exhaustion="partial"),
        repair_seed=SEED,
    )
    outcome = run_snapshot(network, world, tail_query(1.0), engine, tree=tree, tree_seed=SEED)
    assert outcome.details["partial"] == 1.0
    assert outcome.details["retries"] == 1.0
    assert outcome.details["repairs"] == 0.0  # no retry budget, no repair
    assert outcome.details["recall"] <= 1.0
    assert outcome.details["subtrees_delivered"] < outcome.details["subtrees_total"]


def test_exhaustion_can_raise(tail_query):
    network, world, tree = fresh_deployment()
    victim = pick_victim(tree)
    plan = FaultPlan((Fault(EARLY_CRASH_S, NODE_CRASH, node_a=victim),))
    engine = DesSensJoin(
        fault_plan=plan,
        recovery=RecoveryPolicy(max_retries=0, on_exhaustion="raise"),
        repair_seed=SEED,
    )
    with pytest.raises(ExecutionAborted, match="did not complete"):
        run_snapshot(network, world, tail_query(1.0), engine, tree=tree, tree_seed=SEED)


def test_loss_burst_absorbed_by_arq(tail_query):
    network, world, tree = fresh_deployment()
    plan = FaultPlan((
        Fault(0.0, LOSS_BURST, duration_s=1000.0, loss_rate=0.5),
    ))
    engine = DesSensJoin(fault_plan=plan, repair_seed=SEED)
    outcome = run_snapshot(network, world, tail_query(1.0), engine, tree=tree, tree_seed=SEED)
    # The link layer rides out the burst: no protocol failure, full result,
    # but the retransmissions show up in the accounting.
    assert outcome.details["retries"] == 0.0
    assert outcome.details["recall"] == 1.0
    assert outcome.stats.total_retx_packets() > 0
    clean_network, clean_world, clean_tree = fresh_deployment()
    clean = run_snapshot(
        clean_network, clean_world, tail_query(1.0), DesSensJoin(),
        tree=clean_tree, tree_seed=SEED,
    )
    assert outcome.result.signature() == clean.result.signature()


def test_recovery_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RecoveryPolicy(phase_timeout_s=0.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_s=-0.1)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RecoveryPolicy(on_exhaustion="shrug")
