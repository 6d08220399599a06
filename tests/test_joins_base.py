"""TupleFormat and node-tuple construction tests."""

import pytest

from repro.data.relations import SensorWorld
from repro.errors import ProtocolError, QueryError
from repro.joins import base
from repro.joins.base import ExecutionContext, TupleFormat, acquire, node_tuple
from repro.query.evaluate import Row
from repro.query.parser import parse_query


@pytest.fixture()
def fmt(small_world, q2_style):
    return TupleFormat(q2_style, small_world)


def test_attribute_sets_for_q2(fmt):
    assert fmt.join_attributes == ["temp", "x", "y"]
    assert fmt.full_attributes == ["hum", "pres", "temp", "x", "y"]
    assert fmt.raw_join_tuple_bytes == 6
    assert fmt.full_tuple_bytes == 10
    assert fmt.full_tuples_bytes(3) == 30


def test_alias_flags_msb_first(fmt):
    assert fmt.alias_bit("A") == 0b10
    assert fmt.alias_bit("B") == 0b01
    assert fmt.aliases_of_flags(0b11) == ["A", "B"]
    assert fmt.aliases_of_flags(0b01) == ["B"]


def test_codec_matches_quantizer(fmt):
    assert fmt.codec.flag_bits == 2
    assert fmt.codec.z_bits == fmt.quantizer.total_bits


def test_cross_join_rejected(small_world):
    query = parse_query("SELECT A.temp FROM sensors A, sensors B WHERE A.temp > 1 ONCE")
    with pytest.raises(QueryError):
        TupleFormat(query, small_world)


def test_node_tuple_self_join_both_flags(small_world, q2_style):
    fmt = TupleFormat(q2_style, small_world)
    node_id = small_world.network.sensor_node_ids[0]
    record, flags = node_tuple(fmt, node_id)
    assert record is not None
    assert flags == 0b11  # homogeneous self-join: both roles
    assert set(record.values) == set(fmt.full_attributes)
    assert record.node_id == node_id


def test_node_tuple_base_station_is_none(small_world, q2_style):
    fmt = TupleFormat(q2_style, small_world)
    record, flags = node_tuple(fmt, 0)
    assert record is None and flags == 0


def test_node_tuple_respects_selection_predicates(small_world):
    query = parse_query(
        "SELECT A.hum FROM sensors A, sensors B "
        "WHERE A.temp > 9999 AND A.temp - B.temp > 1 ONCE"
    )
    fmt = TupleFormat(query, small_world)
    node_id = small_world.network.sensor_node_ids[0]
    record, flags = node_tuple(fmt, node_id)
    # The node fails A's selection but still serves role B.
    assert flags == 0b01
    assert record is not None


def test_node_tuple_fails_all_selections(small_world):
    query = parse_query(
        "SELECT A.hum FROM sensors A, sensors B "
        "WHERE A.temp > 9999 AND B.temp > 9999 AND A.temp - B.temp > 1 ONCE"
    )
    fmt = TupleFormat(query, small_world)
    record, flags = node_tuple(fmt, small_world.network.sensor_node_ids[0])
    assert record is None and flags == 0


def test_node_tuple_respects_relation_membership(small_network):
    world = SensorWorld.two_relations(small_network, split=0.5, seed=3)
    world.take_snapshot(0.0)
    query = parse_query(
        "SELECT A.hum, B.hum FROM rel_a A, rel_b B WHERE A.temp - B.temp > 1 ONCE"
    )
    fmt = TupleFormat(query, world)
    for node_id in small_network.sensor_node_ids:
        record, flags = node_tuple(fmt, node_id)
        in_a = node_id in world.members("rel_a")
        expected = 0b10 if in_a else 0b01
        assert flags == expected
        assert record is not None


def test_node_tuple_without_snapshot_raises(small_network, q2_style):
    world = SensorWorld.homogeneous(small_network, seed=1)
    fmt = TupleFormat(q2_style, world)
    with pytest.raises(ProtocolError, match="snapshot"):
        node_tuple(fmt, small_network.sensor_node_ids[0])


def test_acquire_respects_selections(small_world):
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp > 9999 AND A.temp - B.temp > 1 ONCE"
    )
    fmt = TupleFormat(query, small_world)
    sensor_ids = small_world.network.sensor_node_ids
    records = acquire(fmt, sensor_ids)
    assert list(records) == sensor_ids
    rows = {
        alias: [r for r in records.values() if r.flags & fmt.alias_bit(alias)]
        for alias in fmt.aliases
    }
    assert rows["A"] == []
    assert len(rows["B"]) == len(sensor_ids)


def test_evaluate_arrived_joins_the_records_themselves(small_world, q2_style, monkeypatch):
    """A complete tuple is a Row: the base station joins every arrived
    record as it is, under each alias its flags name, without copying."""
    fmt = TupleFormat(q2_style, small_world)
    records = list(acquire(fmt, small_world.network.sensor_node_ids).values())
    assert records and all(isinstance(record, Row) for record in records)
    joined = {}

    def capture(query, tuples_by_alias):
        joined.update(tuples_by_alias)
        return "result"

    monkeypatch.setattr(base, "evaluate_join", capture)
    assert base.evaluate_arrived(q2_style, fmt, records) == "result"
    for alias in fmt.aliases:
        expected = [r for r in records if r.flags & fmt.alias_bit(alias)]
        assert [id(row) for row in joined[alias]] == [id(r) for r in expected]


def test_encoded_points_bytes_matches_codec(fmt):
    points = frozenset([(3, 0), (3, 5), (1, 99)])
    expected = (fmt.codec.encoded_size_bits(points) + 7) // 8
    assert fmt.encoded_points_bytes(points) == expected


def test_execution_context_tuple_format(small_network, small_world, small_tree, q2_style):
    context = ExecutionContext(small_network, small_tree, small_world, q2_style)
    fmt = context.tuple_format()
    assert fmt.full_tuple_bytes == 10
