"""SensorWorld (snapshots, relation membership) tests."""

import pytest

from repro.data.relations import RELATION_SENSORS, SensorWorld, default_fields
from repro.sim.node import BASE_STATION_ID


def test_homogeneous_world_membership(small_network):
    world = SensorWorld.homogeneous(small_network, seed=1)
    assert world.relation_names == [RELATION_SENSORS]
    assert world.members(RELATION_SENSORS) == frozenset(small_network.sensor_node_ids)
    for node_id in small_network.sensor_node_ids:
        assert small_network.nodes[node_id].belongs_to(RELATION_SENSORS)


def test_snapshot_fills_every_reading(small_world, small_network):
    for node_id in small_network.sensor_node_ids:
        readings = small_network.nodes[node_id].readings
        for name in ("temp", "hum", "pres", "light", "x", "y"):
            assert name in readings
        assert readings["x"] == small_network.nodes[node_id].x


def test_snapshot_is_deterministic(small_network):
    world = SensorWorld.homogeneous(small_network, seed=1)
    world.take_snapshot(0.0)
    first = {n: dict(small_network.nodes[n].readings) for n in small_network.sensor_node_ids}
    world.take_snapshot(0.0)
    second = {n: dict(small_network.nodes[n].readings) for n in small_network.sensor_node_ids}
    assert first == second


def test_reading_matrix_requires_snapshot(small_network):
    world = SensorWorld.homogeneous(small_network, seed=1)
    with pytest.raises(RuntimeError):
        world.reading_matrix("temp")
    world.take_snapshot(0.0)
    matrix = world.reading_matrix("temp")
    assert matrix.shape == (len(small_network.sensor_node_ids), 2)


def test_unknown_relation_raises(small_world):
    with pytest.raises(KeyError, match="known"):
        small_world.members("nope")


def test_base_station_cannot_join_relation(small_network):
    with pytest.raises(ValueError):
        SensorWorld(
            small_network,
            default_fields(400.0),
            relations={"bad": [BASE_STATION_ID]},
        )


def test_unknown_member_rejected(small_network):
    with pytest.raises(ValueError, match="unknown node"):
        SensorWorld(small_network, default_fields(400.0), relations={"r": [99999]})


def test_two_relations_fractional_split(small_network):
    world = SensorWorld.two_relations(small_network, split=0.3, seed=2)
    a = world.members("rel_a")
    b = world.members("rel_b")
    assert a | b == frozenset(small_network.sensor_node_ids)
    assert not (a & b)
    assert 0.15 < len(a) / len(small_network.sensor_node_ids) < 0.45


def test_two_relations_callable_split(small_network):
    side = max(node.x for node in small_network.nodes.values())

    def split(node):
        return "rel_a" if node.x < side / 2 else "rel_b"

    world = SensorWorld.two_relations(small_network, split=split, seed=2)
    for node_id in world.members("rel_a"):
        assert small_network.nodes[node_id].x < side / 2


def test_two_relations_bad_split_name(small_network):
    with pytest.raises(ValueError, match="unknown relation"):
        SensorWorld.two_relations(small_network, split=lambda node: "oops")


def test_humidity_anticorrelates_with_temperature():
    # The coupling only shows once the area spans several correlation
    # lengths (within a small window the temperature barely varies).
    import numpy as np

    fields = default_fields(2000.0, seed=5, length_scale=150.0)
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 2000, 1500), rng.uniform(0, 2000, 1500)
    temp = fields["temp"].sample(xs, ys)
    hum = fields["hum"].sample(xs, ys)
    assert np.corrcoef(temp, hum)[0, 1] < -0.3


def test_snapshot_time_recorded(small_world):
    assert small_world.snapshot_time == 0.0
    small_world.take_snapshot(42.0)
    assert small_world.snapshot_time == 42.0


def _readings_bits(network):
    """Every alive node's readings, with each value as its exact bit pattern."""
    return {
        node_id: {name: value.hex() for name, value in network.nodes[node_id].readings.items()}
        for node_id in network.sensor_node_ids
    }


def _fresh_readings(network):
    """Readings from a new world, which has no evaluation to reuse."""
    SensorWorld.homogeneous(network, seed=11).take_snapshot(0.0)
    return _readings_bits(network)


def _fail_then_revive(world, node_id):
    world.network.fail_node(node_id)
    world.take_snapshot(0.0)
    world.network.revive_node(node_id, 30.0, 40.0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda world, node_id: world.network.move_node(node_id, 10.0, 20.0),
        lambda world, node_id: world.network.fail_node(node_id),
        _fail_then_revive,
    ],
    ids=["move_node", "fail_node", "revive_node"],
)
def test_snapshot_after_topology_change_matches_fresh_world(small_network, mutate):
    world = SensorWorld.homogeneous(small_network, seed=11)
    world.take_snapshot(0.0)
    mutate(world, small_network.sensor_node_ids[5])
    world.take_snapshot(0.0)
    reused = _readings_bits(small_network)
    assert reused == _fresh_readings(small_network)
    # The first world, sampled again at another t, reuses what it stored.
    world.take_snapshot(3.0)
    assert _readings_bits(small_network) == reused


def test_snapshot_writes_fresh_readings_dicts(small_world, small_network):
    node = small_network.nodes[small_network.sensor_node_ids[0]]
    before = node.readings
    small_world.take_snapshot(0.0)
    assert node.readings is not before
    assert node.readings == before
