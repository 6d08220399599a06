"""External-join baseline tests, including hand-computed packet counts."""

import math

import pytest

from repro.data.relations import SensorWorld
from repro.joins.base import ExecutionContext, TupleFormat, node_tuple
from repro.joins.external import EXTERNAL_PHASE, ExternalJoin
from repro.joins.runner import run_snapshot
from repro.query.evaluate import Row, evaluate_join
from repro.query.parser import parse_query
from repro.routing.ctp import build_tree


def run_external(network, world, query, tree=None):
    return run_snapshot(network, world, query, ExternalJoin(), tree=tree, tree_seed=11)


def test_result_matches_direct_evaluation(small_network, small_world, tail_query):
    query = tail_query(1.0)
    outcome = run_external(small_network, small_world, query)
    fmt = TupleFormat(query, small_world)
    rows = []
    for node_id in small_network.sensor_node_ids:
        record, flags = node_tuple(fmt, node_id)
        if record:
            rows.append(Row(node_id, dict(record.values)))
    direct = evaluate_join(query, {"A": rows, "B": rows})
    assert outcome.result.signature() == direct.signature()


def test_packet_count_matches_hand_computation(small_network, small_world, small_tree, tail_query):
    """Per hop: ceil(subtree bytes / 48), every node ships its tuple."""
    query = tail_query(1.0)  # 4-byte tuples: hum + temp
    outcome = run_external(small_network, small_world, query, tree=small_tree)
    fmt = TupleFormat(query, small_world)
    assert fmt.full_tuple_bytes == 4
    counts = small_tree.descendant_counts()
    expected = 0
    for node_id in small_network.sensor_node_ids:
        subtree_tuples = counts[node_id] + 1
        expected += math.ceil(subtree_tuples * 4 / 48)
    assert outcome.total_transmissions == expected


def test_every_transmission_in_external_phase(small_network, small_world, tail_query):
    outcome = run_external(small_network, small_world, tail_query(2.0))
    assert set(outcome.per_phase_transmissions()) == {EXTERNAL_PHASE}


def test_selection_prunes_at_source(small_network, small_world):
    loose = parse_query(
        "SELECT A.hum FROM sensors A, sensors B WHERE A.temp - B.temp > 1 ONCE"
    )
    tight = parse_query(
        "SELECT A.hum FROM sensors A, sensors B "
        "WHERE A.temp > 9999 AND B.temp > 9999 AND A.temp - B.temp > 1 ONCE"
    )
    cost_loose = run_external(small_network, small_world, loose).total_transmissions
    cost_tight = run_external(small_network, small_world, tight).total_transmissions
    assert cost_tight == 0  # nobody passes the selections, nothing is sent
    assert cost_loose > 0


def test_projection_reduces_cost(small_network, small_world):
    narrow = parse_query(
        "SELECT A.hum FROM sensors A, sensors B WHERE A.temp - B.temp > 2 ONCE"
    )
    wide = parse_query(
        "SELECT A.hum, A.pres, A.light, B.hum, B.pres, B.light "
        "FROM sensors A, sensors B WHERE A.temp - B.temp > 2 ONCE"
    )
    cost_narrow = run_external(small_network, small_world, narrow).total_transmissions
    cost_wide = run_external(small_network, small_world, wide).total_transmissions
    assert cost_narrow < cost_wide


def test_heterogeneous_relations(small_network):
    world = SensorWorld.two_relations(small_network, split=0.5, seed=3)
    query = parse_query(
        "SELECT A.hum, B.hum FROM rel_a A, rel_b B WHERE A.temp - B.temp > 0.5 ONCE"
    )
    outcome = run_snapshot(small_network, world, query, ExternalJoin(), tree_seed=11)
    # Every combination pairs an A-member with a B-member.
    for a_node, b_node in outcome.result.combinations:
        assert a_node in world.members("rel_a")
        assert b_node in world.members("rel_b")


def test_response_time_positive_and_bounded(small_network, small_world, small_tree, tail_query):
    outcome = run_external(small_network, small_world, tail_query(2.0), tree=small_tree)
    assert outcome.response_time_s > 0
    # Sanity bound: no more than height x worst per-hop latency x packets.
    assert outcome.response_time_s < 60.0


def test_details_report_shipping_volume(small_network, small_world, tail_query):
    outcome = run_external(small_network, small_world, tail_query(2.0))
    assert outcome.details["tuples_shipped"] == len(small_network.sensor_node_ids)
    assert outcome.details["bytes_shipped"] == outcome.details["tuples_shipped"] * 4
