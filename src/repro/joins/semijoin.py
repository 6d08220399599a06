"""Semi-join-broadcast baseline (Coman et al. [8] style, §II).

"The design is close to the semi-join in distributed databases.  The
join-attribute values of one of the relations is broadcast over the nodes of
the other relation."

Protocol as modelled here (for two relations):

1. The *filter relation* (the alias with fewer members) ships its **complete
   tuples** to the base station along the routing tree (they are needed for
   the final result anyway; the related-work scenarios assume this relation
   is small or regional).
2. The base station extracts the filter relation's join-attribute values
   (raw, 2 bytes/attribute) and **floods** them over the whole network —
   the general-topology price of the approach: without the small-region
   assumption the broadcast reaches everyone.
3. Every node of the other relation checks locally — it has exact values on
   both sides, so the check is exact — and ships its complete tuple to the
   base station iff it joins.

This reproduces the paper's observation that such specialised methods only
pay off when "the input relations are distributed over two small regions"
and the query is highly selective; on the paper's general workloads the
external join (and a fortiori SENS-Join) beats it, which our comparison
benchmark confirms.
"""

from __future__ import annotations

from .. import constants
from ..query.evaluate import evaluate_join
from ..routing.dissemination import flood_query
from .base import (
    ExecutionContext,
    JoinAlgorithm,
    JoinOutcome,
    acquire,
    convergecast,
)

__all__ = ["SemiJoinBroadcast"]

PHASE_FILTER_COLLECT = "semijoin-filter-collect"
PHASE_FILTER_FLOOD = "semijoin-filter-flood"
PHASE_CANDIDATES = "semijoin-candidates"


class SemiJoinBroadcast(JoinAlgorithm):
    """Broadcast one relation's join-attribute values over the other."""

    name = "semijoin-broadcast"

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """One snapshot execution; two-relation queries only."""
        network, tree = context.network, context.tree
        fmt = context.tuple_format()
        if len(fmt.aliases) != 2:
            raise ValueError("the semi-join baseline supports exactly two relations")
        channel = network.channel

        # Materialise the tuple of every node that can reach the base station.
        records = acquire(fmt, tree.node_ids)

        # Pick the filter alias: the one with fewer passing members.
        def member_count(alias: str) -> int:
            bit = fmt.alias_bit(alias)
            return sum(1 for record in records.values() if record.flags & bit)

        filter_alias = min(fmt.aliases, key=member_count)
        other_alias = next(a for a in fmt.aliases if a != filter_alias)
        filter_bit = fmt.alias_bit(filter_alias)
        other_bit = fmt.alias_bit(other_alias)
        filter_rows = [r for r in records.values() if r.flags & filter_bit]
        candidate_rows = [r for r in records.values() if r.flags & other_bit]

        # Step 1: ship the filter relation's complete tuples to the root.
        convergecast(
            channel,
            tree,
            dict.fromkeys((row.node_id for row in filter_rows), fmt.full_tuple_bytes),
            PHASE_FILTER_COLLECT,
        )

        # Step 2: flood the filter relation's join-attribute values.
        filter_bytes = len(filter_rows) * fmt.raw_join_tuple_bytes
        flood_query(network, filter_bytes, PHASE_FILTER_FLOOD)

        # Step 3: every candidate checks the flooded values locally (exact
        # values on both sides) and ships its complete tuple iff it joins.
        query = context.query
        joining = evaluate_join(
            query, {filter_alias: filter_rows, other_alias: candidate_rows}
        ).contributing_nodes(other_alias)
        matching = [row for row in candidate_rows if row.node_id in joining]
        convergecast(
            channel,
            tree,
            dict.fromkeys((row.node_id for row in matching), fmt.full_tuple_bytes),
            PHASE_CANDIDATES,
        )

        result = evaluate_join(query, {filter_alias: filter_rows, other_alias: matching})

        # Response-time estimate: three sequential epoch-scheduled passes.
        hop = channel.hop_latency_s
        response = 3 * tree.height * (constants.DEFAULT_LEVEL_SLOT_S + hop)

        return JoinOutcome(
            algorithm=self.name,
            result=result,
            stats=network.stats,
            response_time_s=response,
            details={
                "filter_relation_tuples": float(len(filter_rows)),
                "candidate_tuples": float(len(matching)),
            },
        )
