"""The external join — the state-of-the-art general-purpose baseline (§VI).

"It sends the complete tuples from the input relations to the base station
where the result is computed."  Despite its simplicity it is the *optimal*
general method when selectivity is low (result larger than input), and the
paper's implementation notes apply here too:

* tuples are **aggregated** (byte-packed) as they move up the routing tree —
  a node forwards its children's payload together with its own tuple in as
  few maximum-size packets as possible;
* **selections and projections happen as early as possible**: a node that
  fails its selection predicates sends nothing of its own, and only the
  attributes the query needs (SELECT ∪ join attributes) are shipped.
"""

from __future__ import annotations

from .. import constants
from .base import (
    ExecutionContext,
    JoinAlgorithm,
    JoinOutcome,
    acquire,
    convergecast,
    evaluate_arrived,
)

__all__ = ["ExternalJoin", "EXTERNAL_PHASE"]

EXTERNAL_PHASE = "external-collection"


class ExternalJoin(JoinAlgorithm):
    """Ship every (selected, projected) tuple to the base station."""

    name = "external-join"

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """One snapshot execution; see the module docstring."""
        network, tree = context.network, context.tree
        fmt = context.tuple_format()

        # Post-order is the order in which the tuples reach the base station.
        arrived = acquire(fmt, tree.post_order())
        finish = convergecast(
            network.channel,
            tree,
            dict.fromkeys(arrived, fmt.full_tuple_bytes),
            EXTERNAL_PHASE,
        )
        result = evaluate_arrived(context.query, fmt, arrived.values())

        # One epoch-scheduled collection pass (TAG-style level slots) plus
        # the serialisation overflow along the critical path.
        phase_overhead = tree.height * constants.DEFAULT_LEVEL_SLOT_S
        return JoinOutcome(
            algorithm=self.name,
            result=result,
            stats=network.stats,
            response_time_s=phase_overhead + finish,
            details={
                "tuples_shipped": float(len(arrived)),
                "bytes_shipped": float(fmt.full_tuples_bytes(len(arrived))),
            },
        )
