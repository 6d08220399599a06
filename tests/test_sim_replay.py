"""DES replay cross-validation of the analytic timing model."""

import pytest

from repro import constants
from repro.joins.external import EXTERNAL_PHASE, ExternalJoin
from repro.joins.runner import run_snapshot
from repro.joins.sensjoin import PHASE_COLLECTION, PHASE_FILTER, SensJoin
from repro.sim.replay import replay_collection_phase, replay_dissemination_phase
from repro.sim.stats import TransmissionStats


def test_external_join_critical_path_matches_des(
    small_network, small_world, small_tree, tail_query
):
    """The external join's analytic serialisation time must equal an
    independent DES replay of its recorded packet counts."""
    outcome = run_snapshot(
        small_network, small_world, tail_query(1.5), ExternalJoin(), tree=small_tree,
        tree_seed=11,
    )
    replayed = replay_collection_phase(
        small_tree, outcome.stats, EXTERNAL_PHASE, small_network.channel.hop_latency_s
    )
    analytic = outcome.response_time_s - small_tree.height * constants.DEFAULT_LEVEL_SLOT_S
    assert replayed == pytest.approx(analytic, abs=1e-9)


def test_sens_collection_phase_matches_des(
    small_network, small_world, small_tree, tail_query
):
    outcome = run_snapshot(
        small_network, small_world, tail_query(1.5), SensJoin(), tree=small_tree,
        tree_seed=11,
    )
    replayed = replay_collection_phase(
        small_tree, outcome.stats, PHASE_COLLECTION, small_network.channel.hop_latency_s
    )
    assert replayed == pytest.approx(outcome.details["collection_finish_s"], abs=1e-9)


def test_filter_dissemination_arrivals_monotone_in_depth(
    small_network, small_world, small_tree, tail_query
):
    outcome = run_snapshot(
        small_network, small_world, tail_query(1.0), SensJoin(), tree=small_tree,
        tree_seed=11,
    )
    arrivals = replay_dissemination_phase(
        small_tree, outcome.stats, PHASE_FILTER, small_network.channel.hop_latency_s
    )
    assert arrivals[small_tree.root] == 0.0
    # Every node that received the filter has an arrival time.
    assert len(arrivals) > 1
    for node_id in small_tree.node_ids:
        if outcome.stats.node_rx_packets(node_id, [PHASE_FILTER]):
            assert node_id in arrivals
    for node_id, when in arrivals.items():
        if node_id == small_tree.root:
            continue
        parent = small_tree.parent(node_id)
        if parent in arrivals:
            assert when >= arrivals[parent]


def test_replay_requires_root_participation(small_tree):
    with pytest.raises(Exception):
        replay_collection_phase(
            small_tree, TransmissionStats(), "phase", 0.0, participants=[1]
        )


def test_replay_empty_phase_finishes_immediately(small_tree):
    time = replay_collection_phase(small_tree, TransmissionStats(), "nothing", 1.0)
    assert time == 0.0


def test_replay_collection_single_node_tree():
    """A root-only tree has no children to wait for and nothing to send:
    the phase completes at t=0 without spawning any dependency edges."""
    from repro.routing.tree import RoutingTree

    tree = RoutingTree({}, root=0)
    time = replay_collection_phase(tree, TransmissionStats(), "anything", 1.0)
    assert time == 0.0


def test_replay_dissemination_single_node_tree():
    from repro.routing.tree import RoutingTree

    tree = RoutingTree({}, root=0)
    arrivals = replay_dissemination_phase(tree, TransmissionStats(), "anything", 1.0)
    assert arrivals == {0: 0.0}


def test_replay_dissemination_empty_phase(small_tree):
    """No broadcasts in the phase: only the root 'arrives' (at 0); nodes
    that never received anything are absent rather than defaulted."""
    arrivals = replay_dissemination_phase(
        small_tree, TransmissionStats(), "nothing", 1.0
    )
    assert arrivals == {small_tree.root: 0.0}
