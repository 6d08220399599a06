"""Collection-tree construction and repair (CTP-style).

§III: "A routing tree is maintained in a distributed fashion: Based on a
periodic beaconing mechanism, each node maintains a parent that minimizes the
hop count to the base station (for details cf. TinyOS, collection-tree
protocol)."

The converged result of that protocol is a shortest-path (min-hop) tree
rooted at the base station.  :func:`build_tree` computes it directly from
the BFS hop counts of :func:`hop_distances`;
:class:`BeaconProtocol <repro.routing.beacons.BeaconProtocol>` produces the
same structure through actual message exchange.

Among equally good parents (same hop count) CTP picks by link quality.  On a
lossless network every link is perfect, so a tie-breaking policy stands in:

``"random"``    — seeded random choice (lossless default; gives realistic,
                  varied child distributions across seeds),
``"lowest_id"`` — deterministic canonical tree (tests),
``"nearest"``   — the geometrically closest candidate (strongest-link proxy),
``"etx"``       — lowest expected transmission count (default whenever the
                  network carries a :class:`~repro.sim.network.LinkQuality`
                  model; this is CTP's actual metric restricted to the
                  min-hop parent set, steering the tree away from lossy
                  boundary-length links).

Repair (§IV-F) is re-convergence: after a node or link failure,
:func:`repair_tree` recomputes parents over the surviving graph.  Nodes cut
off from the base station are reported so the caller (the query runner) can
re-execute the query without them.  A fresh build is the repair of no old
tree, so both run one min-hop parent loop.

Under *continuous churn* a full re-convergence per topology change is too
expensive: most of the tree is still fine.  :func:`reattach_tree` is the
incremental alternative — only the roots of detached subtrees probe their
radio neighbourhood with beacons and graft onto the nearest attached node,
keeping every surviving parent link untouched.  The beacon exchange is
recorded in the statistics store (phase ``"tree-maintenance"``) so repair cost
shows up in the same accounting as query traffic, and each graft is traced
into the run's telemetry, read from ``network.channel.telemetry``.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Set

from ..errors import NetworkError, RoutingError
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from ..sim.trace import TREE_REATTACH
from .beacons import BEACON_BYTES
from .tree import RoutingTree

__all__ = [
    "hop_distances",
    "build_tree",
    "repair_tree",
    "reattach_tree",
    "RepairReport",
    "ReattachReport",
    "TieBreak",
    "REATTACH_PHASE",
]

#: Accounting phase label for re-attach beacon traffic.
REATTACH_PHASE = "tree-maintenance"

TieBreak = Literal["random", "lowest_id", "nearest", "etx"]


def _default_tie_break(network: Network) -> TieBreak:
    """ETX when link quality is modelled, the classic random pick otherwise."""
    return "etx" if network.link_quality is not None else "random"


def hop_distances(network: Network, source: int = BASE_STATION_ID) -> Dict[int, int]:
    """BFS hop counts from ``source`` over the alive connectivity graph."""
    if source not in network.nodes:
        raise NetworkError(f"unknown node: {source}")
    hops = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbour in network.neighbours(current):
            if neighbour not in hops:
                hops[neighbour] = hops[current] + 1
                queue.append(neighbour)
    return hops


def _pick_parent(
    network: Network,
    node_id: int,
    candidates: List[int],
    tie_break: TieBreak,
    rng: random.Random,
) -> int:
    if tie_break == "lowest_id":
        return min(candidates)
    if tie_break == "nearest":
        node = network.nodes[node_id]
        return min(
            candidates,
            key=lambda cand: (node.distance_to(network.nodes[cand]), cand),
        )
    if tie_break == "etx":
        # Lowest expected transmission count; distance then id break exact
        # ETX ties deterministically.
        node = network.nodes[node_id]
        return min(
            candidates,
            key=lambda cand: (
                network.link_etx(node_id, cand),
                node.distance_to(network.nodes[cand]),
                cand,
            ),
        )
    return rng.choice(sorted(candidates))


def build_tree(
    network: Network,
    tie_break: Optional[TieBreak] = None,
    seed: int = 0,
    require_full_coverage: bool = True,
) -> RoutingTree:
    """Build the converged min-hop collection tree for ``network``.

    Parameters
    ----------
    network:
        The deployment; only alive nodes and up links are considered.
    tie_break:
        How to choose among parents with equal hop count (see module doc);
        ``None`` selects ``"etx"`` on a lossy network and ``"random"``
        otherwise.
    seed:
        Seed for the ``"random"`` tie-break (ignored otherwise).
    require_full_coverage:
        When True (default) a :class:`~repro.errors.RoutingError` is raised
        if some alive node cannot reach the base station; when False those
        nodes are silently excluded (used during repair).
    """
    report = repair_tree(network, None, tie_break, seed)
    if report.orphaned and require_full_coverage:
        sample = sorted(report.orphaned)[:5]
        raise RoutingError(
            f"{len(report.orphaned)} alive node(s) cannot reach the base "
            f"station, e.g. {sample}; the network is partitioned"
        )
    return report.tree


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a tree repair after failures."""

    tree: RoutingTree
    #: Alive nodes that are no longer connected to the base station.
    orphaned: frozenset[int]
    #: Nodes whose parent changed relative to the pre-failure tree.
    reparented: frozenset[int]


def repair_tree(
    network: Network,
    old_tree: Optional[RoutingTree] = None,
    tie_break: Optional[TieBreak] = None,
    seed: int = 0,
) -> RepairReport:
    """Re-converge the routing tree after node/link failures (§IV-F).

    CTP keeps working routes untouched and only re-acquires parents along
    broken paths; the converged result is again a min-hop tree over the
    surviving component.  We compute that converged tree, preferring each
    node's old parent whenever it is still an optimal choice (which is what
    "do not repair what is not broken" converges to).  Without an old tree
    this is the fresh build of :func:`build_tree`.
    """
    if tie_break is None:
        tie_break = _default_tie_break(network)
    hops = hop_distances(network)
    alive_ids = {node_id for node_id, node in network.nodes.items() if node.alive}
    orphaned = frozenset(alive_ids - set(hops) - {BASE_STATION_ID})
    rng = random.Random(seed)
    old_parents = old_tree.as_parent_map() if old_tree is not None else {}
    parents: Dict[int, int] = {}
    reparented: Set[int] = set()
    for node_id in sorted(hops):
        if node_id == BASE_STATION_ID:
            continue
        my_hops = hops[node_id]
        candidates = [
            neighbour
            for neighbour in network.neighbours(node_id)
            if hops.get(neighbour, float("inf")) == my_hops - 1
        ]
        if not candidates:
            raise RoutingError(
                f"node {node_id} at hop {my_hops} has no neighbour at hop "
                f"{my_hops - 1}; inconsistent connectivity graph"
            )
        old_parent = old_parents.get(node_id)
        if old_parent is not None and old_parent in candidates:
            parents[node_id] = old_parent
        else:
            parents[node_id] = _pick_parent(network, node_id, candidates, tie_break, rng)
            if old_parent is not None:
                reparented.add(node_id)
    return RepairReport(
        tree=RoutingTree(parents),
        orphaned=orphaned,
        reparented=frozenset(reparented),
    )


@dataclass(frozen=True)
class ReattachReport:
    """Outcome of an incremental self-healing pass."""

    tree: RoutingTree
    #: Detached subtree roots that grafted onto a new parent.
    reattached: frozenset[int]
    #: Nodes that were not in the old tree at all (rejoined or newly placed)
    #: and were adopted into the healed tree.
    adopted: frozenset[int]
    #: Alive nodes with no attached node in radio range after convergence.
    orphaned: frozenset[int]
    #: Probe and reply beacons exchanged (the repair's message cost).
    beacons: int
    #: Probe rounds until convergence (0 when nothing was detached).
    passes: int


def reattach_tree(
    network: Network,
    old_tree: RoutingTree,
    seed: int = 0,
    time_s: float = 0.0,
) -> ReattachReport:
    """Incrementally heal ``old_tree`` after churn (localized beacon exchange).

    Instead of the global re-convergence of :func:`repair_tree`, only the
    *roots* of detached subtrees act: each broadcasts a probe beacon, every
    attached neighbour answers with a reply beacon, and the root grafts onto
    the geometrically nearest responder (strongest-link proxy, ties by id).
    Its whole surviving subtree comes along unchanged — nodes whose parent
    link still works never spend a packet.  Nodes absent from the old tree
    (rejoins at a new position, fresh arrivals) participate as singleton
    subtrees and are adopted the same way.

    Probe rounds repeat until no detached root can make progress; roots left
    over are reported ``orphaned`` (no attached node in radio range).  The
    per-pass probe order is shuffled with ``seed`` — beacon timers in the
    field are not synchronized — which can only affect *which* equally valid
    parent a cascade picks, never whether a node attaches.

    All beacon traffic is charged through the network's channel under the
    :data:`REATTACH_PHASE` accounting label, and one
    :data:`~repro.sim.trace.TREE_REATTACH` trace event stamped ``time_s``
    goes to the channel's telemetry per graft.
    The healed tree keeps surviving parents verbatim, so it may be a few
    hops taller than a fresh :func:`build_tree` — that is the price of
    locality, and exactly what the bench's churn study measures.
    """
    alive = {node_id for node_id, node in network.nodes.items() if node.alive}
    old_parents = old_tree.as_parent_map()
    # Parent links that survived the churn: both endpoints alive, link up.
    surviving = {
        child: parent
        for child, parent in old_parents.items()
        if child in alive and parent in alive and network.link_up(child, parent)
    }
    children: Dict[int, List[int]] = defaultdict(list)
    for child, parent in surviving.items():
        children[parent].append(child)
    attached = {BASE_STATION_ID}
    queue = deque([BASE_STATION_ID])
    while queue:
        current = queue.popleft()
        for child in sorted(children[current]):
            if child not in attached:
                attached.add(child)
                queue.append(child)
    parents: Dict[int, int] = dict(surviving)
    detached = alive - attached - {BASE_STATION_ID}
    # A detached node whose parent link survived rides along under its
    # parent; only nodes with no surviving parent probe for themselves.
    pending = sorted(node_id for node_id in detached if node_id not in surviving)
    rng = random.Random(seed)
    reattached: Set[int] = set()
    beacons = 0
    passes = 0
    channel = network.channel
    tracer = channel.telemetry.tracer
    while pending:
        passes += 1
        progress = False
        order = list(pending)
        rng.shuffle(order)
        still_detached: List[int] = []
        for root_id in order:
            neighbours = sorted(network.neighbours(root_id))
            beacons += 1
            channel.broadcast(root_id, neighbours, BEACON_BYTES, REATTACH_PHASE)
            candidates = [n for n in neighbours if n in attached]
            for candidate in candidates:
                beacons += 1
                channel.unicast(candidate, root_id, BEACON_BYTES, REATTACH_PHASE)
            if not candidates:
                still_detached.append(root_id)
                continue
            node = network.nodes[root_id]
            parent = min(
                candidates,
                key=lambda cand: (node.distance_to(network.nodes[cand]), cand),
            )
            parents[root_id] = parent
            # The root's surviving subtree becomes attached with it.
            subtree = [root_id]
            walk = deque([root_id])
            while walk:
                current = walk.popleft()
                for child in sorted(children[current]):
                    if child in detached and child not in attached:
                        subtree.append(child)
                        walk.append(child)
            attached.update(subtree)
            reattached.add(root_id)
            progress = True
            tracer.emit(
                time_s,
                root_id,
                TREE_REATTACH,
                parent=parent,
                subtree_size=len(subtree),
                candidates=len(candidates),
            )
        if not progress:
            break
        pending = still_detached
    old_members = set(old_tree.node_ids)
    adopted = frozenset(node_id for node_id in attached if node_id not in old_members)
    orphaned = frozenset(alive - attached - {BASE_STATION_ID})
    final_parents = {
        child: parent for child, parent in parents.items() if child in attached
    }
    return ReattachReport(
        tree=RoutingTree(final_parents),
        reattached=frozenset(reattached),
        adopted=adopted,
        orphaned=orphaned,
        beacons=beacons,
        passes=passes,
    )
