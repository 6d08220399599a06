"""Incremental continuous SENS-Join tests (the paper's §VIII future work)."""

import pytest

from repro import constants
from repro.joins.base import TupleFormat
from repro.joins.incremental import DELTA_HEADER_BYTES, IncrementalSensJoin, _DeltaSensJoin
from repro.joins.runner import run_snapshot
from repro.joins.sensjoin import PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL, SensJoinConfig
from repro.obs.telemetry import Telemetry, instrumented
from repro.query.parser import parse_query
from repro.query.query import JoinQuery, Once
from repro.sim.trace import FILTER_BROADCAST, SPAN_END, SPAN_START, TREECUT_EXIT


@pytest.fixture(scope="module")
def setup(make_deployment):
    network, world = make_deployment(180, seed=17, drift_rate=0.0001)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 11.0 SAMPLE PERIOD 60"
    )
    return network, world, query


def snapshot_reference(network, world, query, algorithm, t):
    once = JoinQuery(query.select, query.relations, query.where, Once())
    return run_snapshot(network, world, once, algorithm, tree_seed=17, snapshot_time=t)


def test_every_round_exact(setup):
    """Each round's result equals the external join on the same snapshot."""
    network, world, query = setup
    executor = IncrementalSensJoin(network, world, query, tree_seed=17)
    for round_index in range(4):
        t = round_index * 60.0
        outcome = executor.run_round(t)
        reference = snapshot_reference(network, world, query, "external-join", t)
        assert outcome.result.signature() == reference.result.signature(), round_index


def test_steady_state_cheaper_than_first_round(setup):
    network, world, query = setup
    executor = IncrementalSensJoin(network, world, query, tree_seed=17)
    costs = [executor.run_round(r * 60.0).total_transmissions for r in range(4)]
    assert min(costs[1:]) < costs[0]


def test_collection_shrinks_under_slow_drift(setup):
    network, world, query = setup
    executor = IncrementalSensJoin(network, world, query, tree_seed=17)
    first = executor.run_round(0.0)
    second = executor.run_round(60.0)
    phase = "join-attribute-collection"
    assert second.per_phase_transmissions().get(phase, 0) < first.per_phase_transmissions()[phase]
    assert second.details["collection_unchanged_subtrees"] > 0


def test_filter_suppression_reported(setup):
    network, world, query = setup
    executor = IncrementalSensJoin(network, world, query, tree_seed=17)
    first = executor.run_round(0.0)
    second = executor.run_round(60.0)
    # Round 0 has no earlier broadcast to reuse; round 1 can reuse at most
    # what round 0 broadcast.
    assert first.details["filter_suppressed"] == 0
    assert second.details["filter_suppressed"] <= first.details["filter_broadcasts"]
    assert "cache_bytes_max" in second.details
    assert second.details["cache_bytes_max"] > 0


def test_frozen_field_costs_almost_nothing_after_round0(make_deployment):
    network, world = make_deployment(120, seed=4)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 10.0 SAMPLE PERIOD 60"
    )
    executor = IncrementalSensJoin(network, world, query, tree_seed=4)
    first = executor.run_round(0.0)
    second = executor.run_round(60.0)
    # Nothing changed: no collection or filter traffic at all; only the
    # final phase (fresh result tuples) remains.
    phases = second.per_phase_transmissions()
    assert phases.get("join-attribute-collection", 0) == 0
    assert phases.get("filter-dissemination", 0) == 0
    assert second.total_transmissions < first.total_transmissions


def test_treecut_disabled_by_default(setup):
    network, world, query = setup
    executor = IncrementalSensJoin(network, world, query, tree_seed=17)
    assert executor.config.dmax_bytes == 0
    outcome = executor.run_round(0.0)
    assert outcome.details["treecut_exited"] == 0


def test_explicit_treecut_still_exact(setup):
    network, world, query = setup
    executor = IncrementalSensJoin(
        network, world, query, config=SensJoinConfig(), tree_seed=17
    )
    outcome = executor.run_round(0.0)
    reference = snapshot_reference(network, world, query, "external-join", 0.0)
    assert outcome.result.signature() == reference.result.signature()
    assert outcome.details["treecut_exited"] > 0


def test_non_quadtree_representation_rejected(setup):
    network, world, query = setup
    with pytest.raises(ValueError, match="quadtree"):
        IncrementalSensJoin(
            network, world, query, config=SensJoinConfig(representation="raw")
        )


def test_membership_changes_handled(make_deployment):
    """Selection predicates over drifting readings flip node flags between
    rounds; the deltas must track that (a formerly-contributing node's point
    disappears)."""
    network, world = make_deployment(120, seed=4, drift_rate=0.005)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp > 22.0 AND A.temp - B.temp > 2.0 SAMPLE PERIOD 60"
    )
    executor = IncrementalSensJoin(network, world, query, tree_seed=4)
    for round_index in range(3):
        t = round_index * 60.0
        outcome = executor.run_round(t)
        once = JoinQuery(query.select, query.relations, query.where, Once())
        reference = run_snapshot(
            network, world, once, "external-join", tree_seed=4, snapshot_time=t
        )
        assert outcome.result.signature() == reference.result.signature(), round_index


def test_incremental_quantizes_each_tuple_once(make_deployment, encode_calls):
    """With Treecut on, proxied tuples keep their own node's point in every
    round: one quantization per node and round."""
    network, world = make_deployment(120, seed=5, drift_rate=0.0001)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 60"
    )
    executor = IncrementalSensJoin(network, world, query, SensJoinConfig(), tree_seed=5)
    for round_index in range(2):
        encode_calls.clear()
        outcome = executor.run_round(round_index * 60.0)
        assert len(encode_calls) == len(network.sensor_node_ids), round_index
    assert outcome.details["treecut_exited"] > 0


def test_treecut_rule_holds_in_every_round(make_deployment):
    """With Treecut on and selections moving nodes in and out of the
    relations, every round decides its Treecut regions by Fig. 2's D_max
    rule inside SENS-Join's own collection phase, traced under the
    executor's protocol label, and stays exact."""
    network, world = make_deployment(200, seed=5, drift_rate=0.005)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp > 22.0 AND B.temp < 21.0 AND A.temp - B.temp > 2.0 "
        "SAMPLE PERIOD 60"
    )
    once = JoinQuery(query.select, query.relations, query.where, Once())
    executor = IncrementalSensJoin(network, world, query, config=SensJoinConfig(), tree_seed=5)
    exits = []
    for round_index in range(4):
        t = round_index * 600.0
        telemetry = Telemetry.capture()
        with instrumented(network, telemetry):
            outcome = executor.run_round(t)
        exits += telemetry.tracer.filter(kind=TREECUT_EXIT)
        collection_spans = [
            event for event in telemetry.tracer.filter(kind=SPAN_END)
            if event.detail["span"] == PHASE_COLLECTION
        ]
        assert len(collection_spans) == 1, round_index
        assert collection_spans[0].detail["protocol"] == "sens-join[incremental]"
        reference = run_snapshot(
            network, world, once, "external-join", tree_seed=5, snapshot_time=t
        )
        assert outcome.result.signature() == reference.result.signature(), round_index
    assert exits
    assert max(event.detail["bytes"] for event in exits) <= constants.DEFAULT_TREECUT_DMAX_BYTES


def test_traced_round_carries_the_filter_wave(make_deployment):
    """A continuous round disseminates its filter through SENS-Join's own
    wave: one filter span under the executor's label, one event per
    broadcast, and the final phase starting where the wave dies out."""
    network, world = make_deployment(200, seed=5, drift_rate=0.005)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 6.0 SAMPLE PERIOD 60"
    )
    executor = IncrementalSensJoin(network, world, query, tree_seed=5)
    telemetry = Telemetry.capture()
    with instrumented(network, telemetry):
        outcome = executor.run_round(0.0)

    def spans(kind, name):
        return [
            event for event in telemetry.tracer.filter(kind=kind)
            if event.detail["span"] == name
        ]

    (wave_start,) = spans(SPAN_START, PHASE_FILTER)
    (wave_end,) = spans(SPAN_END, PHASE_FILTER)
    assert wave_end.detail["protocol"] == "sens-join[incremental]"
    assert wave_end.time > wave_start.time
    broadcasts = telemetry.tracer.filter(kind=FILTER_BROADCAST)
    assert broadcasts
    assert len(broadcasts) == outcome.details["filter_broadcasts"]
    (final_start,) = spans(SPAN_START, PHASE_FINAL)
    assert final_start.time == wave_end.time


def test_filter_frame_prices_against_the_last_broadcast(make_deployment):
    """Silence for an unchanged filter, the bare header for a filter that
    became empty, and the header plus the encoded filter otherwise."""
    network, world = make_deployment(40, seed=5)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 6.0 SAMPLE PERIOD 60"
    )
    fmt = TupleFormat(query, world)
    engine = _DeltaSensJoin(SensJoinConfig(), fmt)
    tel = network.channel.telemetry
    points = frozenset({(1, 5), (2, 9)})
    assert engine._filter_frame(3, fmt, points, tel) == (
        DELTA_HEADER_BYTES + fmt.encoded_points_bytes(points)
    )
    assert engine._filter_frame(3, fmt, points, tel) is None
    assert engine._filter_frame(3, fmt, frozenset(), tel) == DELTA_HEADER_BYTES
    assert engine._filter_frame(3, fmt, frozenset(), tel) is None
    assert engine.frames["suppressed"] == 2


def test_frozen_round_suppresses_exactly_the_earlier_broadcasts(make_deployment):
    """With nothing drifting, round 1 reuses every filter round 0 sent and
    counts nothing for nodes that never broadcast; its final phase is round
    0's, and its result is still exact."""
    network, world = make_deployment(200, seed=5)
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 6.0 SAMPLE PERIOD 60"
    )
    executor = IncrementalSensJoin(network, world, query, tree_seed=5)
    first = executor.run_round(0.0)
    second = executor.run_round(60.0)
    assert first.details["filter_broadcasts"] == 15
    assert first.details["filter_suppressed"] == 0
    assert second.details["filter_broadcasts"] == 0
    assert second.details["filter_suppressed"] == 15
    assert first.per_phase_transmissions()[PHASE_FINAL] == 16
    assert second.per_phase_transmissions() == {PHASE_FINAL: 16}
    reference = run_snapshot(
        network, world, JoinQuery(query.select, query.relations, query.where, Once()),
        "external-join", tree_seed=5, snapshot_time=60.0,
    )
    assert second.result.signature() == reference.result.signature()
