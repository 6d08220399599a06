"""Incremental SENS-Join for continuous queries (the paper's future work).

§VIII: "As follow-on work we currently investigate if the filtering can be
optimized for continuous queries by exploiting temporal correlations."
This module implements that optimization on top of the snapshot protocol.

Observation: under a ``SAMPLE PERIOD`` query the *quantized* join-attribute
points barely change between rounds when the physical fields drift slowly —
a reading must cross a quantization-cell boundary before its point moves.
The pre-computation can therefore be made incremental.  Every round is one
:meth:`~repro.joins.sensjoin.SensJoin.execute`; only the wire cost of its
point sets and filters differs:

* **Delta collection.**  Every node remembers the point set it sent last
  round, which its parent holds too, and transmits the cheaper of the full
  set or the *difference* (added / removed flagged points, each
  quadtree-encoded), behind a one-byte header — or nothing at all when the
  set is unchanged.  Treecut regions are decided in every round by Fig. 2's
  ``D_max`` rule.  A node that exits ships its complete tuples and forgets
  its last set, so its next point-set round sends a full frame.
* **Filter-change suppression.**  SENS-Join's own wave prices each node's
  filter frame: nothing when the pruned filter equals what the node
  broadcast last round (its children reuse theirs; the phases are globally
  scheduled, so silence is unambiguous), the header for a filter that
  became empty, the header plus the quadtree otherwise.  Selective Filter
  Forwarding prunes with the children's last sets, which every node keeps
  anyway: uncapped, whatever ``subtree_limit_bytes`` says.
* **Final phase unchanged.**  Result tuples must flow every round — the
  raw values drift even when the quantized points do not — so step 2 is
  the snapshot protocol's own :meth:`~repro.joins.sensjoin.SensJoin.final`.

Every round's result is still exactly the external join of that round's
snapshot (the same conservative-filter argument as for the snapshot
protocol; the deltas reconstruct identical point sets, which a debug check
can verify).

Memory cost: the per-child caches exceed the snapshot protocol's 500-byte
cap — this is precisely the trade the paper left as future work.  The
per-round outcome reports the worst per-node cache size
(``details["cache_bytes_max"]``) so the trade stays visible.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Optional

from ..codec.quadtree import FlaggedPoint
from ..data.relations import SensorWorld
from ..obs.telemetry import Telemetry
from ..query.query import JoinQuery
from ..routing.ctp import build_tree
from ..routing.tree import RoutingTree
from ..sim.network import Network
from .base import ExecutionContext, JoinOutcome, TupleFormat
from .sensjoin import SensJoin, SensJoinConfig, SensJoinRun, _JoinAttrPayload, _NodeState

__all__ = ["IncrementalSensJoin", "DELTA_HEADER_BYTES"]

#: Header distinguishing a full-set payload from an added/removed delta.
DELTA_HEADER_BYTES = 1


class _DeltaSensJoin(SensJoin):
    """SENS-Join pricing its point sets and filters against the last round's."""

    name = "sens-join[incremental]"

    def __init__(self, config: SensJoinConfig, fmt: TupleFormat):
        super().__init__(config)
        self.fmt = fmt
        #: The point set each node sent its parent in the latest round; a
        #: node that exited with Treecut has no entry.
        self.last_sent: Dict[int, FrozenSet[FlaggedPoint]] = {}
        self._sent_before: Dict[int, FrozenSet[FlaggedPoint]] = {}
        #: node -> the filter it last broadcast to its children.
        self.last_filter: Dict[int, FrozenSet[FlaggedPoint]] = {}
        #: This round's counts of "delta", "unchanged" and "suppressed" frames.
        self.frames: Counter = Counter()

    def begin(self, context: ExecutionContext) -> SensJoinRun:
        """A round over the executor's own format, whose size memo persists."""
        self.frames.clear()
        self._sent_before, self.last_sent = self.last_sent, {}
        states = {node_id: _NodeState() for node_id in context.tree.node_ids}
        return SensJoinRun(context, self.fmt, states)

    def _joinatts_bytes_raw(
        self, sender: int, fmt: TupleFormat, payload: _JoinAttrPayload
    ) -> int:
        """Wire cost of ``payload`` given that the parent knows the set
        ``sender`` sent last round: the cheaper of a full set or an
        added/removed delta, and nothing when the set is unchanged."""
        current = payload.points
        previous = self._sent_before.get(sender, frozenset())
        self.last_sent[sender] = current
        if current == previous:
            self.frames["unchanged"] += 1
            return 0
        full = DELTA_HEADER_BYTES + fmt.encoded_points_bytes(current)
        delta = (
            DELTA_HEADER_BYTES
            + fmt.encoded_points_bytes(current - previous)
            + fmt.encoded_points_bytes(previous - current)
        )
        if delta < full:
            self.frames["delta"] += 1
            return delta
        return full

    def _subtree_atts(
        self, node_id: int, fmt: TupleFormat, atts: FrozenSet[FlaggedPoint], tel: Telemetry,
        at_s: float,
    ) -> Optional[FrozenSet[FlaggedPoint]]:
        """The children's sets, kept across rounds anyway: no cap, no sizing."""
        return atts

    def _filter_frame(
        self, node_id: int, fmt: TupleFormat, points: FrozenSet[FlaggedPoint], tel: Telemetry
    ) -> Optional[int]:
        """Nothing for the filter ``node_id`` broadcast last round (its
        children reuse it), the bare header for a filter that became empty,
        and the header plus the encoded filter otherwise.  A node that never
        broadcast stays silent for an empty filter, as in a snapshot, so
        only a node with an earlier broadcast counts as suppressed."""
        if points == self.last_filter.get(node_id, frozenset()):
            if node_id in self.last_filter:
                self.frames["suppressed"] += 1
            return None
        self.last_filter[node_id] = points
        if not points:
            return DELTA_HEADER_BYTES
        return DELTA_HEADER_BYTES + self._filter_bytes(fmt, points, tel)


class IncrementalSensJoin:
    """Stateful continuous executor; one instance per running query.

    Usage::

        executor = IncrementalSensJoin(network, world, query)
        outcomes = [executor.run_round(t) for t in (0, 30, 60, 90)]
    """

    def __init__(
        self,
        network: Network,
        world: SensorWorld,
        query: JoinQuery,
        config: Optional[SensJoinConfig] = None,
        tree: Optional[RoutingTree] = None,
        tree_seed: int = 0,
    ):
        if config is None:
            # Treecut optimises one-shot executions: it trades join-attribute
            # messages near the leaves for complete tuples.  Under temporal
            # suppression that trade inverts — cut regions would have to ship
            # their complete tuples *every round*, while an uncut leaf whose
            # quantized point is unchanged sends nothing at all.  The
            # incremental executor therefore disables Treecut by default.
            config = SensJoinConfig(dmax_bytes=0)
        if config.representation != "quadtree":
            raise ValueError("the incremental executor requires the quadtree representation")
        self.network = network
        self.world = world
        self.query = query
        self.config = config
        self.tree = tree if tree is not None else build_tree(network, seed=tree_seed)
        self.fmt = TupleFormat(query, world)
        self._engine = _DeltaSensJoin(config, self.fmt)
        self.round_index = 0

    # -- public API ---------------------------------------------------------------

    def run_round(self, snapshot_time: float) -> JoinOutcome:
        """Execute one round over a fresh snapshot; returns its outcome."""
        engine = self._engine
        self.network.reset_accounting()
        self.world.take_snapshot(snapshot_time)
        outcome = engine.execute(
            ExecutionContext(self.network, self.tree, self.world, self.query)
        )
        details = outcome.details
        details["round"] = float(self.round_index)
        details["collection_delta_messages"] = float(engine.frames["delta"])
        details["collection_unchanged_subtrees"] = float(engine.frames["unchanged"])
        details["filter_suppressed"] = float(engine.frames["suppressed"])
        details["cache_bytes_max"] = float(
            max(self._cache_bytes(node_id) for node_id in self.tree.node_ids)
        )
        self.round_index += 1
        return outcome

    def _cache_bytes(self, node_id: int) -> int:
        """Memory ``node_id`` holds across rounds: its own last set, its
        awake children's sets and its last broadcast filter."""
        fmt, last_sent, last_filter = self.fmt, self._engine.last_sent, self._engine.last_filter
        total = fmt.encoded_points_bytes(last_sent.get(node_id, frozenset()))
        for child in self.tree.children(node_id):
            if child in last_sent:
                total += fmt.encoded_points_bytes(last_sent[child])
        if node_id in last_filter:
            total += fmt.encoded_points_bytes(last_filter[node_id])
        return total
