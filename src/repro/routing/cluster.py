"""Grid-cluster-head routing over the CTP backbone.

At 10k-100k nodes the flat min-hop tree grows hundreds of interior
forwarders, and every one of them re-broadcasts during filter dissemination
(§IV-C's Selective Filter Dissemination prunes by *content*, but the number
of potential forwarders is still the number of interior nodes).  Hierarchical
sensor-network designs — LEACH-style cluster heads, SART's hierarchical
aggregation (arXiv:1209.5430), progressive processing over nested region
hierarchies (arXiv:0906.0252) — flatten that cost by electing one head per
region and letting ordinary nodes talk through their head.

This module implements the grid variant that falls out of the spatial index
(:mod:`repro.sim.spatial`): the plane is already partitioned into cells of
radio-range pitch, so each occupied cell elects the alive node nearest the
cell centre as its *cluster head* (ties by lowest id).  Heads keep their
min-hop CTP parents — they form the backbone — while every other node
re-parents onto its cell head when that is safe:

* the head is a radio neighbour (cells have diagonal r·√2 > r, so same-cell
  reachability is checked, never assumed), and
* the head is strictly closer to the base station (BFS hop count).

The strict hop-count guard gives two properties for free.  *Acyclicity*:
every edge — backbone or member→head — strictly decreases the BFS hop
count, so no cycle can close (:class:`~repro.routing.tree.RoutingTree`
re-validates at construction anyway).  *Path optimality*: a re-parented
member routes over ``1 + hops(head) <= hops(member)`` hops, so clustering
never lengthens a collection path; what it changes is the *shape* — children
concentrate onto heads, shrinking the set of interior forwarders that filter
dissemination has to fan through, at the price of larger head fan-in (which
shows up as schedule latency in the scale study — the classic aggregation
tradeoff).

Members whose head is unreachable or hop-ineligible simply keep their CTP
parent, so the cluster tree is always total and always valid — on sparse
graphs it degrades gracefully toward the flat tree.

:func:`build_routing_tree` is the mode selector the rest of the stack
(deployment config, broker, verify harness, bench experiments) goes
through: ``"flat"`` = plain CTP, ``"cluster"`` = this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import RoutingError
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from ..sim.spatial import grid_cell
from .ctp import TieBreak, build_tree, hop_distances
from .tree import RoutingTree

__all__ = [
    "ROUTING_MODES",
    "ClusterLayout",
    "build_cluster_tree",
    "build_routing_tree",
    "elect_heads",
]

#: Recognised routing-tree construction modes.
ROUTING_MODES = ("flat", "cluster")


@dataclass(frozen=True)
class ClusterLayout:
    """A cluster routing tree plus the head/member structure behind it."""

    #: The final routing tree (heads on CTP backbone, members under heads).
    tree: RoutingTree
    #: Elected cluster-head node ids.
    heads: frozenset[int]
    #: member node id -> head node id, for members actually re-parented.
    members: Dict[int, int]
    #: Grid pitch the heads were elected on (= radio range by default).
    cell_m: float

    @property
    def head_count(self) -> int:
        return len(self.heads)

    @property
    def reparented_count(self) -> int:
        return len(self.members)

    def mean_cluster_size(self) -> float:
        """Mean number of re-parented members per head (0 when no heads)."""
        if not self.heads:
            return 0.0
        return len(self.members) / len(self.heads)


def elect_heads(
    network: Network, cell_m: Optional[float] = None
) -> Dict[Tuple[int, int], int]:
    """Elect one cluster head per occupied grid cell.

    The head of a cell is the alive non-base-station node closest to the
    cell centre (squared distance; ties broken by lowest id) — a
    deterministic stand-in for the rotating elections of LEACH-style
    protocols, which keeps every run replayable.
    """
    pitch = float(cell_m if cell_m is not None else network.radio_range_m)
    if pitch <= 0:
        raise RoutingError(f"cluster cell size must be positive, got {pitch}")
    best: Dict[Tuple[int, int], Tuple[float, int]] = {}
    for node in network.nodes.values():
        if not node.alive or node.node_id == BASE_STATION_ID:
            continue
        cell = grid_cell(node.x, node.y, pitch)
        cx = (cell[0] + 0.5) * pitch
        cy = (cell[1] + 0.5) * pitch
        dx = node.x - cx
        dy = node.y - cy
        key = (dx * dx + dy * dy, node.node_id)
        if cell not in best or key < best[cell]:
            best[cell] = key
    return {cell: node_id for cell, (_, node_id) in best.items()}


def build_cluster_tree(
    network: Network,
    tie_break: Optional[TieBreak] = None,
    seed: int = 0,
    cell_m: Optional[float] = None,
) -> ClusterLayout:
    """Build the cluster routing tree: CTP backbone + per-cell head groups.

    Same signature contract as :func:`~repro.routing.ctp.build_tree` (the
    backbone is built by it), so the two modes are interchangeable wherever
    a tree seed/tie-break is threaded through.
    """
    pitch = float(cell_m if cell_m is not None else network.radio_range_m)
    backbone = build_tree(network, tie_break=tie_break, seed=seed)
    head_of_cell = elect_heads(network, pitch)
    heads = frozenset(head_of_cell.values())
    hops = hop_distances(network)
    parents = dict(backbone.as_parent_map())
    members: Dict[int, int] = {}
    for node_id in sorted(parents):
        if node_id in heads:
            continue
        node = network.nodes[node_id]
        head = head_of_cell.get(grid_cell(node.x, node.y, pitch))
        if head is None or head == parents[node_id]:
            continue
        # Reachability is checked, never assumed: a cell's diagonal exceeds
        # the radio range.  The strict hop guard keeps the graph acyclic AND
        # path-optimal: the member's route becomes 1 + hops(head), which
        # never exceeds its flat min-hop distance.
        if network.link_up(node_id, head) and hops[head] < hops[node_id]:
            parents[node_id] = head
            members[node_id] = head
    return ClusterLayout(
        tree=RoutingTree(parents),
        heads=heads,
        members=members,
        cell_m=pitch,
    )


def build_routing_tree(
    network: Network,
    routing: str = "flat",
    tie_break: Optional[TieBreak] = None,
    seed: int = 0,
) -> RoutingTree:
    """Build a routing tree in the requested mode (the stack-wide selector).

    ``"flat"`` is the paper's plain min-hop CTP tree; ``"cluster"`` layers
    grid-cell cluster heads over the same backbone.  The mode is an argument
    of this function only, and an unknown one raises
    :class:`~repro.errors.RoutingError`.
    """
    if routing == "flat":
        return build_tree(network, tie_break=tie_break, seed=seed)
    if routing == "cluster":
        return build_cluster_tree(network, tie_break=tie_break, seed=seed).tree
    raise RoutingError(f"unknown routing mode: {routing!r}")
