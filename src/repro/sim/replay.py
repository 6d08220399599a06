"""Cross-validation of the analytic timing model through the DES kernel.

The join protocols compute their response times analytically (per-node
critical paths folded into the tree traversals).  This module recomputes the
same quantity *independently*: it reads each node's packet counts for one
phase from the :class:`~repro.sim.stats.TransmissionStats` store, spawns one
kernel process per node, and lets the discrete-event machinery derive the
phase's completion time — each node transmits only after all of its children
have (collection phases), or after its parent's broadcast arrived
(dissemination phases).  A node's send takes its transmitted packets times
the hop latency.

Tests assert that the DES-derived times equal the analytic ones exactly;
any divergence would mean the hand-rolled critical-path code and the
simulated schedule disagree.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..errors import SimulationError
from .kernel import Environment
from .stats import TransmissionStats

__all__ = ["replay_collection_phase", "replay_dissemination_phase"]


def replay_collection_phase(
    tree,
    stats: TransmissionStats,
    phase: str,
    hop_latency_s: float,
    participants: Iterable[int] | None = None,
) -> float:
    """DES completion time of an upward (post-order) phase.

    Every participating node waits for all of its participating children,
    then spends the serialisation latency of whatever it transmitted in
    ``phase`` (zero if it sent nothing).  Returns the time at which the root
    has heard from every child — the phase's critical path.

    ``participants`` restricts the replay to a subset of nodes (e.g. the
    non-exited nodes of SENS-Join's final phase); children outside the set
    contribute no dependency.
    """
    member = set(participants) if participants is not None else set(tree.node_ids)
    env = Environment()
    done = {node_id: env.event() for node_id in tree.node_ids if node_id in member}

    def node_process(node_id: int):
        child_events = [
            done[child] for child in tree.children(node_id) if child in done
        ]
        if child_events:
            yield env.all_of(child_events)
        delay = stats.node_tx_packets(node_id, (phase,)) * hop_latency_s
        if delay:
            yield env.timeout(delay)
        done[node_id].succeed(env.now)

    for node_id in done:
        env.process(node_process(node_id))
    if tree.root not in done:
        raise SimulationError("the root must participate in a collection phase")
    return float(env.run(until=done[tree.root]))


def replay_dissemination_phase(
    tree,
    stats: TransmissionStats,
    phase: str,
    hop_latency_s: float,
) -> Dict[int, float]:
    """DES arrival times of a downward (pre-order) broadcast phase.

    The root broadcasts at time 0; every other node that transmitted in
    ``phase`` waits for its own arrival first.  A broadcast reaches the
    sender's tree children that received in ``phase``.  Returns node ->
    arrival time for the root and every node reached.
    """
    env = Environment()
    arrival = {tree.root: env.event()}
    sends: Dict[int, tuple[int, list[int]]] = {}
    for node_id in tree.node_ids:
        packets = stats.node_tx_packets(node_id, (phase,))
        if packets:
            listeners = [
                child
                for child in tree.children(node_id)
                if stats.node_rx_packets(child, (phase,))
            ]
            sends[node_id] = (packets, listeners)
            arrival.setdefault(node_id, env.event())
            for child in listeners:
                arrival.setdefault(child, env.event())

    def broadcaster(node_id: int, packets: int, listeners: list[int]):
        yield arrival[node_id]
        yield env.timeout(packets * hop_latency_s)
        for child in listeners:
            if not arrival[child].triggered:
                arrival[child].succeed(env.now)

    for node_id, (packets, listeners) in sends.items():
        env.process(broadcaster(node_id, packets, listeners))
    arrival[tree.root].succeed(0.0)
    env.run()
    times: Dict[int, float] = {}
    for node_id, event in arrival.items():
        if event.triggered:
            times[node_id] = float(event.value)
    return times
