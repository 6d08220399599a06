"""Incremental SENS-Join for continuous queries (the paper's future work).

§VIII: "As follow-on work we currently investigate if the filtering can be
optimized for continuous queries by exploiting temporal correlations."
This module implements that optimization on top of the snapshot protocol.

Observation: under a ``SAMPLE PERIOD`` query the *quantized* join-attribute
points barely change between rounds when the physical fields drift slowly —
a reading must cross a quantization-cell boundary before its point moves.
The pre-computation can therefore be made incremental:

* **Delta collection.**  Step 1a is the snapshot protocol's own collection
  phase (:meth:`~repro.joins.sensjoin.SensJoin.collect`); only the wire cost
  of a join-attribute payload differs.  Every node remembers the point set
  it sent last round, which its parent holds too, and transmits the cheaper
  of the full set or the *difference* (added / removed flagged points, each
  quadtree-encoded), behind a one-byte header — or nothing at all when the
  set is unchanged.  Treecut regions are decided in every round by Fig. 2's
  ``D_max`` rule.  A node that exits ships its complete tuples and forgets
  its last set, so its next point-set round sends a full frame.
* **Filter-change suppression.**  A node re-broadcasts the pruned filter to
  its children only when it differs from what it broadcast last round;
  silence means "reuse the cached filter" (the phases are globally
  scheduled, so silence is unambiguous).
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
from dataclasses import replace
from typing import Dict, FrozenSet, Optional

from .. import constants
from ..codec.quadtree import FlaggedPoint
from ..codec.setops import intersect_points, union_points
from ..data.relations import SensorWorld
from ..query.query import JoinQuery
from ..routing.ctp import build_tree
from ..routing.tree import RoutingTree
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from .base import ExecutionContext, JoinOutcome, TupleFormat
from .filterbuild import build_join_filter
from .sensjoin import (
    PHASE_FILTER,
    SensJoin,
    SensJoinConfig,
    SensJoinRun,
    _JoinAttrPayload,
    _NodeState,
)

__all__ = ["IncrementalSensJoin", "DELTA_HEADER_BYTES"]

#: Header distinguishing a full-set payload from an added/removed delta.
DELTA_HEADER_BYTES = 1


class _DeltaSensJoin(SensJoin):
    """SENS-Join whose join-attribute payloads are priced as deltas."""

    name = "sens-join[incremental]"

    def __init__(self, config: SensJoinConfig):
        super().__init__(config)
        #: The point set each node last sent its parent; a node that exited
        #: with Treecut has no entry.
        self.last_sent: Dict[int, FrozenSet[FlaggedPoint]] = {}
        #: How many of this round's payloads were "delta" or "unchanged".
        self.frames: Counter = Counter()

    def _joinatts_bytes_raw(
        self, sender: int, fmt: TupleFormat, payload: _JoinAttrPayload
    ) -> int:
        """Wire cost of ``payload`` given that the parent knows the set
        ``sender`` sent last round: the cheaper of a full set or an
        added/removed delta, and nothing when the set is unchanged."""
        current = payload.points
        previous = self.last_sent.get(sender, frozenset())
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
        # Selective Filter Forwarding storage stays off: the filter phase
        # below prunes with the children's last sets instead.
        self._engine = _DeltaSensJoin(replace(config, subtree_limit_bytes=0))
        #: node -> the filter it last broadcast to its children.
        self._last_filter: Dict[int, FrozenSet[FlaggedPoint]] = {}
        self.round_index = 0

    # -- public API ---------------------------------------------------------------

    def run_round(self, snapshot_time: float) -> JoinOutcome:
        """Execute one round over a fresh snapshot; returns its outcome."""
        network, tree, fmt, engine = self.network, self.tree, self.fmt, self._engine
        network.reset_accounting()
        self.world.take_snapshot(snapshot_time)
        # The run keeps the executor's own format: a fresh one per round
        # would empty its size memo.
        context = ExecutionContext(network, tree, self.world, self.query)
        run = SensJoinRun(
            context, fmt, {node_id: _NodeState() for node_id in tree.node_ids},
            details={"round": float(self.round_index)},
        )
        details = run.details

        engine.frames.clear()
        bs_points = engine.collect(run)
        for node_id, state in run.states.items():
            if state.exited:
                engine.last_sent.pop(node_id, None)
        details["collection_delta_messages"] = float(engine.frames["delta"])
        details["collection_unchanged_subtrees"] = float(engine.frames["unchanged"])

        run.join_filter = build_join_filter(fmt, bs_points)
        details["filter_points"] = float(len(run.join_filter))

        self._filter_phase(run)

        result = engine.final(run)
        details["cache_bytes_max"] = float(
            max(self._cache_bytes(node_id) for node_id in tree.node_ids)
        )
        self.round_index += 1
        return JoinOutcome(
            algorithm=engine.name,
            result=result,
            stats=network.stats,
            response_time_s=3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S,
            details=details,
        )

    def _cache_bytes(self, node_id: int) -> int:
        """Memory ``node_id`` holds across rounds: its own last set, its
        awake children's sets and its last broadcast filter."""
        fmt, last_sent = self.fmt, self._engine.last_sent
        total = fmt.encoded_points_bytes(last_sent.get(node_id, frozenset()))
        for child in self.tree.children(node_id):
            if child in last_sent:
                total += fmt.encoded_points_bytes(last_sent[child])
        if node_id in self._last_filter:
            total += fmt.encoded_points_bytes(self._last_filter[node_id])
        return total

    # -- phase 1b: filter with change suppression -------------------------------------

    def _filter_phase(self, run: SensJoinRun) -> None:
        tree, channel = self.tree, self.network.channel
        states, last_sent = run.states, self._engine.last_sent
        states[BASE_STATION_ID].filter_received = run.join_filter
        broadcasts = 0
        suppressed = 0

        for node_id in tree.pre_order():
            if states[node_id].exited:
                continue
            awake_children = [
                child for child in tree.children(node_id) if not states[child].exited
            ]
            if not awake_children:
                continue
            incoming = states[node_id].filter_received or frozenset()
            subtree_points: FrozenSet[FlaggedPoint] = frozenset()
            for child in awake_children:
                subtree_points = union_points(subtree_points, last_sent[child])
            subtree_filter = intersect_points(incoming, subtree_points)
            for child in awake_children:
                states[child].filter_received = subtree_filter
            if subtree_filter == self._last_filter.get(node_id, frozenset()):
                # Unchanged since last round: children reuse their cache.
                suppressed += 1
                continue
            self._last_filter[node_id] = subtree_filter
            if subtree_filter:
                payload = DELTA_HEADER_BYTES + self.fmt.encoded_points_bytes(subtree_filter)
            else:
                payload = DELTA_HEADER_BYTES  # explicit "filter now empty"
            channel.broadcast(node_id, awake_children, payload, PHASE_FILTER)
            broadcasts += 1
        run.details["filter_broadcasts"] = float(broadcasts)
        run.details["filter_suppressed"] = float(suppressed)
