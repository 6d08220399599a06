"""Cluster-head routing: election, tree validity, and the strict-hop rule."""

import pytest

from repro.bench.workloads import build_scenario, ratio_query_builder
from repro.errors import RoutingError
from repro.joins.runner import run_snapshot
from repro.routing.cluster import (
    ROUTING_MODES,
    build_cluster_tree,
    build_routing_tree,
    elect_heads,
)
from repro.routing.ctp import build_tree, hop_distances
from repro.sim.network import DeploymentConfig, deploy_uniform
from repro.sim.node import BASE_STATION_ID
from repro.sim.spatial import grid_cell


@pytest.fixture(scope="module")
def network():
    base = DeploymentConfig().scaled(300)
    config = DeploymentConfig(
        node_count=base.node_count,
        area_side_m=base.area_side_m,
        radio_range_m=base.radio_range_m,
        seed=0,
    )
    return deploy_uniform(config)


def test_routing_modes_catalogue():
    assert ROUTING_MODES == ("flat", "cluster")


def test_unknown_routing_mode_rejected(network):
    with pytest.raises(RoutingError, match="unknown routing mode"):
        build_routing_tree(network, routing="mesh")


def test_flat_mode_is_plain_ctp(network):
    flat = build_routing_tree(network, routing="flat", seed=0)
    ctp = build_tree(network, seed=0)
    assert flat.as_parent_map() == ctp.as_parent_map()


def test_one_head_per_occupied_cell(network):
    pitch = network.radio_range_m
    heads = elect_heads(network)
    occupied = {
        grid_cell(node.x, node.y, pitch)
        for node in network.nodes.values()
        if node.alive and node.node_id != BASE_STATION_ID
    }
    assert set(heads) == occupied
    # Every head lives in the cell it governs and is the closest-to-centre
    # alive node there (ties by lowest id).
    for cell, head in heads.items():
        node = network.nodes[head]
        assert grid_cell(node.x, node.y, pitch) == cell
        cx, cy = (cell[0] + 0.5) * pitch, (cell[1] + 0.5) * pitch
        best = min(
            (
                ((n.x - cx) ** 2 + (n.y - cy) ** 2, n.node_id)
                for n in network.nodes.values()
                if n.alive
                and n.node_id != BASE_STATION_ID
                and grid_cell(n.x, n.y, pitch) == cell
            ),
        )
        assert best[1] == head


def test_elect_heads_rejects_nonpositive_cell(network):
    with pytest.raises(RoutingError, match="positive"):
        elect_heads(network, cell_m=0.0)


def test_cluster_tree_valid_and_total(network):
    layout = build_cluster_tree(network, seed=0)
    flat = build_tree(network, seed=0)
    # Same node set as the flat tree — clustering never drops anyone.
    assert set(layout.tree.node_ids) == set(flat.node_ids)
    # Every tree edge is a live radio link.
    for node_id, parent in layout.tree.as_parent_map().items():
        assert network.link_up(node_id, parent)


def test_members_obey_strict_hop_rule(network):
    layout = build_cluster_tree(network, seed=0)
    hops = hop_distances(network)
    for member, head in layout.members.items():
        assert head in layout.heads
        assert network.link_up(member, head)
        assert hops[head] < hops[member]
        assert layout.tree.parent(member) == head
    # Path optimality: depth never exceeds the BFS hop distance.
    for node_id in layout.tree.node_ids:
        if node_id != BASE_STATION_ID:
            assert layout.tree.depth(node_id) <= hops[node_id]
    assert layout.tree.height == build_tree(network, seed=0).height


def test_cluster_layout_statistics(network):
    layout = build_cluster_tree(network, seed=0)
    assert layout.head_count == len(layout.heads) > 0
    assert layout.reparented_count == len(layout.members) > 0
    assert layout.mean_cluster_size() == pytest.approx(
        len(layout.members) / len(layout.heads)
    )
    assert layout.cell_m == network.radio_range_m


def test_cluster_tree_deterministic(network):
    a = build_cluster_tree(network, seed=0)
    b = build_cluster_tree(network, seed=0)
    assert a.tree.as_parent_map() == b.tree.as_parent_map()
    assert a.heads == b.heads and a.members == b.members


def test_cluster_concentrates_interior_forwarders(network):
    """The point of clustering: fewer distinct interior (forwarder) nodes."""
    flat = build_tree(network, seed=0)
    clustered = build_cluster_tree(network, seed=0).tree

    def interior(tree):
        return {
            node_id
            for node_id in tree.node_ids
            if node_id != BASE_STATION_ID and not tree.is_leaf(node_id)
        }

    assert len(interior(clustered)) < len(interior(flat))


def test_join_results_identical_flat_vs_cluster():
    """Routing shape changes cost, never correctness."""
    query = ratio_query_builder(1, 3)(6.0)
    flat = build_scenario(200, seed=0, routing="flat")
    clustered = build_scenario(200, seed=0, routing="cluster")
    out_flat = run_snapshot(
        flat.network, flat.world, query, "sens-join", tree=flat.tree
    )
    out_cluster = run_snapshot(
        clustered.network, clustered.world, query, "sens-join",
        tree=clustered.tree,
    )
    assert out_flat.result.result_set() == out_cluster.result.result_set()
    assert out_flat.result.match_count == out_cluster.result.match_count
