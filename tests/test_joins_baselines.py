"""Specialised-baseline tests (semi-join broadcast, mediated join)."""

import pytest

from repro.data.relations import SensorWorld
from repro.joins.external import ExternalJoin
from repro.joins.mediated import MediatedJoin
from repro.joins.runner import run_snapshot, run_with_failures
from repro.joins.semijoin import SemiJoinBroadcast
from repro.query.parser import parse_query
from repro.sim.faults import NODE_CRASH, Fault
from repro.sim.network import DeploymentConfig, deploy_clustered, deploy_grid


def test_semijoin_result_matches_external(small_network, small_world, tail_query):
    query = tail_query(1.5)
    external = run_snapshot(small_network, small_world, query, ExternalJoin(), tree_seed=11)
    semijoin = run_snapshot(
        small_network, small_world, query, SemiJoinBroadcast(), tree_seed=11
    )
    assert external.result.signature() == semijoin.result.signature()


def test_mediated_result_matches_external(small_network, small_world, tail_query):
    query = tail_query(1.5)
    external = run_snapshot(small_network, small_world, query, ExternalJoin(), tree_seed=11)
    mediated = run_snapshot(small_network, small_world, query, MediatedJoin(), tree_seed=11)
    assert external.result.signature() == mediated.result.signature()


def test_semijoin_loses_on_general_self_join(small_network, small_world, tail_query):
    """On the paper's general workloads the specialised methods lose to the
    external join (§VI: 'the external join outperforms the specialized join
    methods ... in each of our experiments')."""
    query = tail_query(1.5)
    external = run_snapshot(small_network, small_world, query, ExternalJoin(), tree_seed=11)
    semijoin = run_snapshot(
        small_network, small_world, query, SemiJoinBroadcast(), tree_seed=11
    )
    assert semijoin.total_transmissions > external.total_transmissions


def test_semijoin_rejects_three_relations(small_network, small_world):
    query = parse_query(
        "SELECT A.temp FROM sensors A, sensors B, sensors C "
        "WHERE A.temp - B.temp > 1 AND B.temp - C.temp > 1 ONCE"
    )
    with pytest.raises(ValueError):
        run_snapshot(small_network, small_world, query, SemiJoinBroadcast(), tree_seed=11)


def test_semijoin_picks_smaller_relation_as_filter(small_network):
    world = SensorWorld.two_relations(small_network, split=0.15, seed=5)
    query = parse_query(
        "SELECT A.hum, B.hum FROM rel_a A, rel_b B WHERE A.temp - B.temp > 0.2 ONCE"
    )
    outcome = run_snapshot(small_network, world, query, SemiJoinBroadcast(), tree_seed=11)
    filter_tuples = outcome.details["filter_relation_tuples"]
    assert filter_tuples == len(world.members("rel_a"))


def test_mediated_details_report_mediator(small_network, small_world, tail_query):
    outcome = run_snapshot(
        small_network, small_world, tail_query(1.5), MediatedJoin(), tree_seed=11
    )
    mediator = int(outcome.details["mediator"])
    assert mediator in small_network.sensor_node_ids
    assert outcome.details["mediator_to_bs_hops"] >= 1


def test_mediated_empty_snapshot(small_network, small_world):
    query = parse_query(
        "SELECT A.hum FROM sensors A, sensors B "
        "WHERE A.temp > 9999 AND B.temp > 9999 AND A.temp - B.temp > 1 ONCE"
    )
    outcome = run_snapshot(small_network, small_world, query, MediatedJoin(), tree_seed=11)
    assert outcome.result.match_count == 0
    assert outcome.total_transmissions == 0


@pytest.mark.parametrize("algorithm", ["semijoin-broadcast", "mediated-join"])
def test_cut_off_node_does_not_join(algorithm, tail_query):
    """A node whose neighbours crashed stays alive but cannot reach the base
    station, so its tuple joins in no engine's result."""
    corner = 49  # a corner of the grid row farthest from the base station

    def run(name):
        config = DeploymentConfig(
            node_count=49, area_side_m=280.0, radio_range_m=50.0, seed=1
        )
        network = deploy_grid(config)
        world = SensorWorld.homogeneous(network, seed=1, area_side_m=280.0)
        faults = [
            Fault(time_s=0.0, kind=NODE_CRASH, node_a=n)
            for n in sorted(network.neighbours(corner))
        ]
        outcome = run_with_failures(network, world, tail_query(1.0), name, faults=faults)
        assert network.nodes[corner].alive
        return outcome

    outcome = run(algorithm)
    assert corner not in outcome.result.all_contributing_nodes()
    assert outcome.result_set() == run("external-join").result_set()
