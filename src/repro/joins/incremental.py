"""Incremental SENS-Join for continuous queries (the paper's future work).

§VIII: "As follow-on work we currently investigate if the filtering can be
optimized for continuous queries by exploiting temporal correlations."
This module implements that optimization on top of the snapshot protocol.

Observation: under a ``SAMPLE PERIOD`` query the *quantized* join-attribute
points barely change between rounds when the physical fields drift slowly —
a reading must cross a quantization-cell boundary before its point moves.
The pre-computation can therefore be made incremental:

* **Delta collection.**  Every non-exited node remembers, per child, the
  point set that child last reported, plus the set it last sent upward.
  Each round it reconstructs its current subtree set and transmits only the
  *difference* (added / removed flagged points, each quadtree-encoded, plus
  a one-byte header) — or the full set when that happens to be smaller
  (always true in round 0).  Nodes in Treecut regions still ship their
  complete tuples every round: their payloads are below ``D_max`` anyway
  and the proxy needs the fresh values.
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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .. import constants
from ..codec.quadtree import FlaggedPoint
from ..codec.setops import intersect_points, union_points
from ..data.relations import SensorWorld
from ..query.query import JoinQuery
from ..routing.ctp import build_tree
from ..routing.tree import RoutingTree
from ..sim.network import Network
from ..sim.node import BASE_STATION_ID
from .base import ExecutionContext, JoinOutcome, TupleFormat, node_tuple
from .filterbuild import build_join_filter
from .sensjoin import (
    PHASE_COLLECTION,
    PHASE_FILTER,
    SensJoin,
    SensJoinConfig,
    SensJoinRun,
    _CarriedTuple,
    _NodeState,
)

__all__ = ["IncrementalSensJoin", "DELTA_HEADER_BYTES"]

#: Header distinguishing a full-set payload from an added/removed delta.
DELTA_HEADER_BYTES = 1


@dataclass
class _NodeCache:
    """Cross-round memory of one non-exited node."""

    child_sets: Dict[int, FrozenSet[FlaggedPoint]] = field(default_factory=dict)
    last_sent: FrozenSet[FlaggedPoint] = frozenset()
    last_filter_broadcast: Optional[FrozenSet[FlaggedPoint]] = None
    exited: bool = False

    def size_bytes(self, fmt: TupleFormat) -> int:
        """Approximate memory held for the incremental bookkeeping."""
        total = fmt.encoded_points_bytes(self.last_sent)
        for points in self.child_sets.values():
            total += fmt.encoded_points_bytes(points)
        if self.last_filter_broadcast is not None:
            total += fmt.encoded_points_bytes(self.last_filter_broadcast)
        return total


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
        #: Step 2 is the snapshot protocol's own final phase.
        self._engine = SensJoin(config)
        self.caches: Dict[int, _NodeCache] = {
            node_id: _NodeCache() for node_id in self.tree.node_ids
        }
        self.round_index = 0

    # -- public API ---------------------------------------------------------------

    def run_round(self, snapshot_time: float) -> JoinOutcome:
        """Execute one round over a fresh snapshot; returns its outcome."""
        network, tree, fmt = self.network, self.tree, self.fmt
        network.reset_accounting()
        self.world.take_snapshot(snapshot_time)
        context = ExecutionContext(network, tree, self.world, self.query)
        run = SensJoinRun(
            context, fmt, {node_id: _NodeState() for node_id in tree.node_ids},
            details={"round": float(self.round_index)},
        )
        details = run.details

        self._collection_phase(run)

        bs_cache = self.caches[BASE_STATION_ID]
        bs_points: FrozenSet[FlaggedPoint] = frozenset()
        for points in bs_cache.child_sets.values():
            bs_points = union_points(bs_points, points)
        bs_points = union_points(
            bs_points, [point for _record, point in run.states[BASE_STATION_ID].proxied]
        )

        run.join_filter = build_join_filter(fmt, bs_points)
        details["filter_points"] = float(len(run.join_filter))

        self._filter_phase(run)

        result = self._engine.final(run)
        details["cache_bytes_max"] = float(
            max(cache.size_bytes(fmt) for cache in self.caches.values())
        )
        self.round_index += 1
        return JoinOutcome(
            algorithm="sens-join[incremental]",
            result=result,
            stats=network.stats,
            response_time_s=3 * tree.height * constants.DEFAULT_LEVEL_SLOT_S,
            details=details,
        )

    # -- phase 1a: delta collection --------------------------------------------------

    def _payload_bytes(
        self, current: FrozenSet[FlaggedPoint], previous: FrozenSet[FlaggedPoint]
    ) -> Tuple[int, str]:
        """Wire cost of reporting ``current`` given the receiver knows
        ``previous``: the cheaper of a full set or an added/removed delta."""
        fmt = self.fmt
        full = DELTA_HEADER_BYTES + fmt.encoded_points_bytes(current)
        added = current - previous
        removed = previous - current
        if not added and not removed:
            return 0, "unchanged"
        delta = (
            DELTA_HEADER_BYTES
            + fmt.encoded_points_bytes(added)
            + fmt.encoded_points_bytes(removed)
        )
        if delta < full:
            return delta, "delta"
        return full, "full"

    def _collection_phase(self, run: SensJoinRun) -> None:
        network, tree, fmt = self.network, self.tree, self.fmt
        channel = network.channel
        states, details = run.states, run.details
        first_round = self.round_index == 0
        treecut_enabled = self.config.dmax_bytes > 0

        full_up: Dict[int, List[_CarriedTuple]] = {}
        full_bytes_up: Dict[int, int] = {}
        delta_messages = 0
        unchanged_subtrees = 0

        for node_id in tree.post_order():
            cache = self.caches[node_id]
            state = states[node_id]
            children = tree.children(node_id)

            received_full: List[_CarriedTuple] = []
            received_full_bytes = 0
            all_children_full = True
            for child in children:
                if self.caches[child].exited:
                    received_full.extend(full_up.pop(child, []))
                    received_full_bytes += full_bytes_up.pop(child, 0)
                else:
                    all_children_full = False

            record, flags = node_tuple(fmt, node_id)
            state.record = record
            if record is not None:
                state.own_point = (
                    flags,
                    fmt.quantizer.encode({k: record.values[k] for k in fmt.join_attributes}),
                )
            own_bytes = fmt.full_tuple_bytes if record is not None else 0

            if node_id == BASE_STATION_ID:
                state.proxied = received_full
                continue

            # Treecut membership is decided in round 0 and frozen: the byte
            # volumes it depends on are constant across rounds.
            if first_round:
                cache.exited = (
                    treecut_enabled
                    and all_children_full
                    and received_full_bytes + own_bytes <= self.config.dmax_bytes
                )
            state.exited = cache.exited
            if cache.exited:
                own = [(record, state.own_point)] if record else []
                payload_records = received_full + own
                payload_bytes = fmt.full_tuples_bytes(len(payload_records))
                channel.unicast(node_id, tree.parent(node_id), payload_bytes, PHASE_COLLECTION)
                full_up[node_id] = payload_records
                full_bytes_up[node_id] = payload_bytes
                continue

            state.proxied = received_full
            current: FrozenSet[FlaggedPoint] = frozenset()
            for points in cache.child_sets.values():
                current = union_points(current, points)
            carried_points = [point for _record, point in received_full]
            if state.own_point is not None:
                carried_points.append(state.own_point)
            current = union_points(current, carried_points)

            payload_bytes, kind = self._payload_bytes(current, cache.last_sent)
            if kind == "unchanged":
                unchanged_subtrees += 1
            elif kind == "delta":
                delta_messages += 1
            channel.unicast(node_id, tree.parent(node_id), payload_bytes, PHASE_COLLECTION)
            cache.last_sent = current
            parent_cache = self.caches[tree.parent(node_id)]
            parent_cache.child_sets[node_id] = current

        details["collection_delta_messages"] = float(delta_messages)
        details["collection_unchanged_subtrees"] = float(unchanged_subtrees)

    # -- phase 1b: filter with change suppression -------------------------------------

    def _filter_phase(self, run: SensJoinRun) -> None:
        network, tree = self.network, self.tree
        channel = network.channel
        states = run.states
        states[BASE_STATION_ID].filter_received = run.join_filter
        broadcasts = 0
        suppressed = 0

        for node_id in tree.pre_order():
            cache = self.caches[node_id]
            if cache.exited:
                continue
            awake_children = [
                child for child in tree.children(node_id) if not self.caches[child].exited
            ]
            if not awake_children:
                continue
            incoming = states[node_id].filter_received or frozenset()
            subtree_points: FrozenSet[FlaggedPoint] = frozenset()
            for points in cache.child_sets.values():
                subtree_points = union_points(subtree_points, points)
            subtree_filter = intersect_points(incoming, subtree_points)
            for child in awake_children:
                states[child].filter_received = subtree_filter
            if subtree_filter == (cache.last_filter_broadcast or frozenset()):
                # Unchanged since last round: children reuse their cache.
                suppressed += 1
                continue
            cache.last_filter_broadcast = subtree_filter
            if subtree_filter:
                payload = DELTA_HEADER_BYTES + self.fmt.encoded_points_bytes(subtree_filter)
            else:
                payload = DELTA_HEADER_BYTES  # explicit "filter now empty"
            channel.broadcast(node_id, awake_children, payload, PHASE_FILTER)
            broadcasts += 1
        run.details["filter_broadcasts"] = float(broadcasts)
        run.details["filter_suppressed"] = float(suppressed)
