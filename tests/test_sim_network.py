"""Deployment and connectivity tests."""

import pytest

from repro.errors import NetworkError
from repro.sim.network import (
    DeploymentConfig,
    LinkQuality,
    Network,
    deploy_clustered,
    deploy_grid,
    deploy_uniform,
)
from repro.sim.node import BASE_STATION_ID, SensorNode


def test_uniform_deployment_connected(small_network):
    assert small_network.is_connected()
    assert len(small_network.sensor_node_ids) == 200
    assert BASE_STATION_ID in small_network.nodes


def test_neighbourhood_is_symmetric(small_network):
    for node_id in small_network.node_ids:
        for neighbour in small_network.neighbours(node_id):
            assert node_id in small_network.neighbours(neighbour)


def test_neighbours_within_radio_range(small_network):
    for node_id in small_network.node_ids:
        node = small_network.nodes[node_id]
        for neighbour in small_network.neighbours(node_id):
            assert node.distance_to(small_network.nodes[neighbour]) <= 50.0 + 1e-9


def test_average_degree_near_paper_typical(small_network):
    # §IV-B: typical neighbourhood sizes are "around 6 to 15".
    assert 5.0 <= small_network.average_degree() <= 16.0


def test_duplicate_ids_rejected():
    nodes = [SensorNode(0, 0, 0), SensorNode(1, 1, 1), SensorNode(1, 2, 2)]
    with pytest.raises(NetworkError):
        Network(nodes, radio_range_m=50.0)


def test_missing_base_station_rejected():
    nodes = [SensorNode(1, 1, 1), SensorNode(2, 2, 2)]
    with pytest.raises(NetworkError):
        Network(nodes, radio_range_m=50.0)


def test_grid_deployment_deterministic():
    config = DeploymentConfig(node_count=25, area_side_m=200.0, seed=3)
    a = deploy_grid(config)
    b = deploy_grid(config)
    assert [a.nodes[i].position for i in a.node_ids] == [
        b.nodes[i].position for i in b.node_ids
    ]


def test_grid_pitch_exceeding_range_rejected():
    config = DeploymentConfig(node_count=9, area_side_m=1000.0, radio_range_m=50.0)
    with pytest.raises(NetworkError, match="pitch"):
        deploy_grid(config)


def test_clustered_deployment_connects_with_overlapping_clusters():
    config = DeploymentConfig(node_count=120, area_side_m=300.0, seed=5)
    network = deploy_clustered(config, cluster_count=3, cluster_std_m=80.0)
    assert network.is_connected()


def test_fail_node_removes_from_graph(small_network):
    victim = small_network.sensor_node_ids[5]
    neighbours = set(small_network.neighbours(victim))
    small_network.fail_node(victim)
    assert not small_network.nodes[victim].alive
    for neighbour in neighbours:
        assert victim not in small_network.neighbours(neighbour)
    with pytest.raises(NetworkError):
        small_network.neighbours(victim)


def test_base_station_cannot_fail(small_network):
    with pytest.raises(NetworkError):
        small_network.fail_node(BASE_STATION_ID)


def test_fail_and_restore_link(small_network):
    node = small_network.sensor_node_ids[0]
    neighbour = next(iter(small_network.neighbours(node)))
    small_network.fail_link(node, neighbour)
    assert neighbour not in small_network.neighbours(node)
    assert node not in small_network.neighbours(neighbour)
    small_network.restore_link(node, neighbour)
    assert neighbour in small_network.neighbours(node)


def test_fail_node_is_idempotent(small_network):
    victim = small_network.sensor_node_ids[5]
    small_network.fail_node(victim)
    energy_before = small_network.total_energy()
    small_network.fail_node(victim)  # second call: a no-op, not an error
    assert not small_network.nodes[victim].alive
    assert small_network.total_energy() == energy_before


def test_restore_link_rejects_unknown_and_self(small_network):
    with pytest.raises(NetworkError, match="unknown node"):
        small_network.restore_link(1, 99999)
    with pytest.raises(NetworkError, match="unknown node"):
        small_network.restore_link(99999, 1)
    with pytest.raises(NetworkError):
        small_network.restore_link(5, 5)


def test_restore_link_to_dead_node_does_not_resurrect(small_network):
    node = small_network.sensor_node_ids[0]
    neighbour = sorted(small_network.neighbours(node))[0]
    small_network.fail_link(node, neighbour)
    small_network.fail_node(neighbour)
    small_network.restore_link(node, neighbour)
    # The failed-link record is cleared, but a dead endpoint stays
    # unreachable: restoring the link must not revive connectivity.
    assert neighbour not in small_network.neighbours(node)
    assert not small_network.link_up(node, neighbour)


def test_link_up_tracks_adjacency(small_network):
    node = small_network.sensor_node_ids[0]
    neighbour = sorted(small_network.neighbours(node))[0]
    assert small_network.link_up(node, neighbour)
    assert small_network.link_up(neighbour, node)
    small_network.fail_link(node, neighbour)
    assert not small_network.link_up(node, neighbour)
    assert not small_network.link_up(neighbour, node)
    assert not small_network.link_up(node, 99999)


def test_total_energy_sums_ledgers(small_network):
    assert small_network.total_energy() == 0.0
    a = small_network.sensor_node_ids[0]
    b = min(small_network.neighbours(a))
    small_network.channel.unicast(a, b, 10, "x")
    spent = small_network.energy_by_node()
    assert set(spent) == set(small_network.nodes)
    assert small_network.total_energy() == sum(spent.values())
    model = small_network.energy_model
    assert spent[a] == model.tx_energy(1, 10)
    assert spent[b] == model.rx_energy(1, 10)
    assert small_network.total_energy() > 0.0


def test_scaled_config_keeps_density():
    base = DeploymentConfig()
    scaled = base.scaled(600)
    base_density = base.node_count / base.area_side_m**2
    scaled_density = scaled.node_count / scaled.area_side_m**2
    assert scaled_density == pytest.approx(base_density, rel=1e-6)


def test_impossible_density_raises():
    config = DeploymentConfig(node_count=10, area_side_m=5000.0, radio_range_m=50.0)
    with pytest.raises(NetworkError):
        deploy_uniform(config, max_attempts=2)


def test_reset_accounting_clears_ledgers_and_stats(small_network):
    channel = small_network.channel
    a, b = small_network.sensor_node_ids[:2]
    channel.unicast(a, BASE_STATION_ID, 10, "x") if BASE_STATION_ID in small_network.neighbours(a) else None
    channel.unicast(a, b, 10, "x")
    assert small_network.stats.total_tx_packets() >= 1
    before = small_network.stats
    small_network.reset_accounting()
    assert small_network.stats.total_tx_packets() == 0
    assert small_network.energy_by_node()[a] == 0.0
    # The old store is swapped out, not zeroed: an outcome holding it keeps
    # its run's counts.
    assert before is not small_network.stats
    assert before.total_tx_packets() >= 1
    # The channel must write into the fresh collector.
    channel.unicast(a, b, 10, "y")
    assert small_network.stats.total_tx_packets() == 1


def test_config_validation():
    with pytest.raises(ValueError):
        DeploymentConfig(node_count=1)
    with pytest.raises(ValueError):
        DeploymentConfig(area_side_m=-1.0)


def test_node_helpers():
    node = SensorNode(3, 3.0, 4.0, relations=frozenset({"sensors"}))
    assert node.position == (3.0, 4.0)
    assert node.distance_to(SensorNode(4, 0.0, 0.0)) == pytest.approx(5.0)
    assert node.belongs_to("sensors") and not node.belongs_to("other")
    assert not node.is_base_station
    assert SensorNode(BASE_STATION_ID, 0, 0).is_base_station


def test_fail_link_rejects_unknown_nodes(small_network):
    with pytest.raises(NetworkError, match="unknown node"):
        small_network.fail_link(1, 99999)
    with pytest.raises(NetworkError, match="unknown node"):
        small_network.fail_link(99999, 1)
    # A rejected call must not leave a stale entry behind.
    assert frozenset((1, 99999)) not in small_network._failed_links


def test_fail_link_rejects_self_link(small_network):
    with pytest.raises(NetworkError):
        small_network.fail_link(5, 5)


def test_link_quality_validation():
    with pytest.raises(ValueError):
        LinkQuality(loss_rate=1.0)
    with pytest.raises(ValueError):
        LinkQuality(loss_rate=-0.1)
    with pytest.raises(ValueError):
        LinkQuality(loss_rate=0.1, distance_exponent=-1.0)


def test_link_quality_distance_shape():
    quality = LinkQuality(loss_rate=0.3, distance_exponent=2.0)
    assert quality.enabled
    assert quality.loss_probability(0.0, 50.0) == 0.0
    assert quality.loss_probability(25.0, 50.0) == pytest.approx(0.3 * 0.25)
    assert quality.loss_probability(50.0, 50.0) == pytest.approx(0.3)
    # Distances beyond the range (no such links exist) are clamped.
    assert quality.loss_probability(80.0, 50.0) == pytest.approx(0.3)
    assert quality.prr(50.0, 50.0) == pytest.approx(0.7)


def test_disabled_link_quality_is_normalised_away():
    config = DeploymentConfig(node_count=60, area_side_m=210.0, seed=2)
    network = deploy_uniform(config)
    assert network.link_quality is None
    assert network.channel.loss_probability is None
    assert network.link_loss_probability(1, 2) == 0.0
    assert network.link_etx(1, 2) == 1.0


def test_lossy_deployment_wires_the_channel():
    config = DeploymentConfig(node_count=60, area_side_m=210.0, seed=2, loss_rate=0.2)
    network = deploy_uniform(config)
    assert network.link_quality is not None
    assert network.link_quality.loss_rate == 0.2
    assert network.channel.loss_probability is not None
    node = network.sensor_node_ids[0]
    neighbour = next(iter(network.neighbours(node)))
    p_link = network.link_loss_probability(node, neighbour)
    assert 0.0 <= p_link < 0.2  # links are shorter than the range
    assert network.link_etx(node, neighbour) == pytest.approx(1.0 / (1.0 - p_link))
    # Same positions as the lossless deployment: loss only affects links.
    lossless = deploy_uniform(DeploymentConfig(node_count=60, area_side_m=210.0, seed=2))
    assert all(
        network.nodes[n].x == lossless.nodes[n].x for n in network.node_ids
    )


def test_config_loss_rate_validated_and_scaled():
    with pytest.raises(ValueError):
        DeploymentConfig(loss_rate=1.5)
    config = DeploymentConfig(node_count=600, loss_rate=0.25)
    assert config.scaled(1200).loss_rate == 0.25


def test_reset_accounting_reseeds_arq():
    config = DeploymentConfig(node_count=60, area_side_m=210.0, seed=2, loss_rate=0.3)
    network = deploy_uniform(config)
    node = network.sensor_node_ids[0]
    neighbour = next(iter(network.neighbours(node)))
    network.reset_accounting()
    for _ in range(50):
        network.channel.unicast(node, neighbour, 480, "phase")
    first = network.stats.total_retx_packets()
    network.reset_accounting()
    for _ in range(50):
        network.channel.unicast(node, neighbour, 480, "phase")
    assert network.stats.total_retx_packets() == first


# ---------------------------------------------------------------------------
# Scale regressions: slotted node state and per-node memory ceiling
# ---------------------------------------------------------------------------


def test_sensor_node_and_ledger_are_slotted():
    """The per-node object must stay ``__slots__``-backed (no ``__dict__``).

    Traffic and energy live in the network's statistics store, so the node
    is the only per-node object.

    A stray attribute assignment (or a dataclass edit dropping
    ``slots=True``) re-grows every node by a dict, which is exactly what
    caps deployments at a few thousand nodes.  The ``sys.getsizeof`` bound
    is generous — the point is catching a dict reappearing (+64 bytes or
    more), not byte-exact layout.
    """
    import sys

    node = SensorNode(1, 0.0, 0.0)
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.stray_attribute = 1
    assert sys.getsizeof(node) <= 120


def test_deployment_memory_per_node_ceiling():
    """tracemalloc regression gate: a 5k-node deployment stays lean.

    Measured ~4.3 KB/node retained (the adjacency sets dominate at the
    paper's ~10.5 mean degree); the ceiling has ~40% headroom.  Breaking
    it means a per-node structure regressed to boxed/dict storage — the
    dense O(n²) matrix this repo removed would blow past it instantly.
    """
    import tracemalloc

    node_count = 5000
    base = DeploymentConfig().scaled(node_count)
    config = DeploymentConfig(
        node_count=base.node_count,
        area_side_m=base.area_side_m,
        radio_range_m=base.radio_range_m,
        seed=0,
    )
    tracemalloc.start()
    try:
        network = deploy_uniform(config)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(network.sensor_node_ids) == node_count
    per_node_current = current / node_count
    per_node_peak = peak / node_count
    assert per_node_current <= 6000, (
        f"retained {per_node_current:.0f} B/node (ceiling 6000)"
    )
    assert per_node_peak <= 8000, (
        f"peak {per_node_peak:.0f} B/node (ceiling 8000)"
    )
