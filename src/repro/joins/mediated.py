"""Mediated join baseline (Coman et al. [8], §II).

"A 'mediated join' ... computes the result at a central location inside the
network": both relations send their tuples to a mediator node chosen between
the input regions; the mediator joins and forwards the *result* to the base
station.

The approach wins only when (a) the relations live in two small regions,
(b) the regions are close to each other compared to their distance to the
base station, and (c) the join is highly selective (small result).  On
general workloads the result shipping leg erases the savings — which is why
the paper compares SENS-Join against the external join only.  We implement
the mediated join so that claim is checkable.

Modelling choices: the mediator is the contributing node closest to the
centroid of all contributing nodes; collection to the mediator uses a BFS
(min-hop) tree rooted there, with the same byte-packing as the external
join; the result travels mediator -> base station along the min-hop path,
sized at 2 bytes per selected attribute per result row.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from .. import constants
from ..errors import ProtocolError
from ..routing.tree import RoutingTree
from ..sim.node import BASE_STATION_ID
from .base import (
    ExecutionContext,
    JoinAlgorithm,
    JoinOutcome,
    acquire,
    convergecast,
    evaluate_arrived,
)

__all__ = ["MediatedJoin"]

PHASE_COLLECT = "mediated-collect"
PHASE_RESULT = "mediated-result"


def _bfs_tree(network, root: int) -> RoutingTree:
    """Min-hop tree over the connectivity graph rooted at ``root``."""
    parents: Dict[int, int] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for neighbour in sorted(network.neighbours(current)):
            if neighbour not in seen:
                seen.add(neighbour)
                parents[neighbour] = current
                queue.append(neighbour)
    return RoutingTree(parents, root=root)


class MediatedJoin(JoinAlgorithm):
    """Join at an in-network mediator, ship the result to the base station."""

    name = "mediated-join"

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """One snapshot execution; see the module docstring."""
        network = context.network
        fmt = context.tuple_format()
        channel = network.channel

        # Only nodes that can reach the base station take part.
        records = acquire(fmt, context.tree.node_ids)
        if not records:
            result = evaluate_arrived(context.query, fmt, ())
            return JoinOutcome(self.name, result, network.stats, 0.0, {})

        # Mediator: contributing node nearest the contributors' centroid.
        xs = [network.nodes[i].x for i in records]
        ys = [network.nodes[i].y for i in records]
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        mediator = min(
            records,
            key=lambda i: (network.nodes[i].x - cx) ** 2 + (network.nodes[i].y - cy) ** 2,
        )

        # Collect every contributing tuple at the mediator, which joins.
        tree = _bfs_tree(network, mediator)
        convergecast(
            channel, tree, dict.fromkeys(records, fmt.full_tuple_bytes), PHASE_COLLECT
        )
        result = evaluate_arrived(context.query, fmt, records.values())

        # Ship the result rows to the base station along the min-hop path,
        # which the mediator's BFS tree already holds.
        row_bytes = len(context.query.select) * fmt.bytes_per_attribute
        result_bytes = result.row_count * row_bytes
        if BASE_STATION_ID not in tree:
            raise ProtocolError(f"no path from mediator {mediator} to the base station")
        path = tree.path_to_root(BASE_STATION_ID)[::-1]
        for sender, receiver in zip(path, path[1:]):
            channel.unicast(sender, receiver, result_bytes, PHASE_RESULT)

        # Two epoch-scheduled legs: collection at the mediator, then the
        # result relay to the base station.
        hop = channel.hop_latency_s
        response = (tree.height + len(path)) * (constants.DEFAULT_LEVEL_SLOT_S + hop)

        return JoinOutcome(
            algorithm=self.name,
            result=result,
            stats=network.stats,
            response_time_s=response,
            details={
                "mediator": float(mediator),
                "result_rows": float(result.row_count),
                "mediator_to_bs_hops": float(len(path) - 1),
            },
        )
