"""SENS-Join: the paper's general-purpose in-network join (§IV).

The protocol in three steps, exactly following Figs. 1-3:

1a. **Join-Attribute-Collection** (post-order up the routing tree).  Near the
    leaves, *Treecut* applies: as long as the accumulated payload of complete
    tuples stays within ``D_max`` (30 bytes) a node forwards complete tuples
    and exits the query.  The first node where the volume would exceed
    ``D_max`` stores the received complete tuples (it becomes a *proxy* for
    that subtree), remembers its children's join-attribute points
    (*SubtreeJoinAtts*, capped at 500 bytes), converts everything to
    quantized join-attribute points, adds its own point, and sends the set
    upward in the compact quadtree representation.

1b. **Filter-Dissemination** (pre-order down the tree).  The base station
    joins the collected points conservatively (cell-interval semantics) into
    the *join filter* and broadcasts it.  *Selective Filter Forwarding*: each
    node intersects the incoming filter with its SubtreeJoinAtts and
    broadcasts only a non-empty intersection — the filter shrinks on the way
    down and entire subtrees without result tuples never hear it.

2.  **Final-Result-Computation** (post-order).  A node whose own point is in
    the filter (in a role it has) sends its complete tuple — stored since
    step 1a, because "it is not possible to re-acquire it from the sensors"
    (§IV-D); a proxy checks and sends on behalf of its cut-off children.
    Tuples aggregate into packets up the tree; the base station computes the
    exact final join.

Knobs (all default to the paper's values) support the ablation studies:
``dmax_bytes`` (Treecut threshold; 0 disables Treecut), ``subtree_limit_bytes``
(Selective-Filter-Forwarding memory; 0 disables pruning), and
``representation`` (``"quadtree"`` | ``"raw"`` | ``"zlib"`` | ``"bzip2"`` —
the Fig. 16 / §VI-B comparisons).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import constants
from ..codec.compression import compressed_size, encode_raw_tuples
from ..codec.quadtree import FlaggedPoint
from ..codec.setops import intersect_points, union_points
from ..errors import ProtocolError
from ..obs.telemetry import Telemetry
from ..query.evaluate import JoinResult
from ..routing.dissemination import PIGGYBACK_HEADER_BYTES
from ..sim.node import BASE_STATION_ID
from ..sim.trace import (
    FILTER_BROADCAST,
    FILTER_PIGGYBACK,
    FILTER_PRUNED,
    FINAL_SEND,
    PROXY_STORE,
    SEND_JOIN_ATTS,
    SUBTREE_OVERFLOW,
    SUBTREE_STORE,
    TREECUT_EXIT,
)
from .base import (
    ExecutionContext,
    FullTupleRecord,
    JoinAlgorithm,
    JoinOutcome,
    TupleFormat,
    evaluate_arrived,
    node_tuple,
)
from .filterbuild import build_join_filter

__all__ = [
    "SensJoin",
    "SensJoinConfig",
    "SensJoinRun",
    "PHASE_COLLECTION",
    "PHASE_FILTER",
    "PHASE_FINAL",
]

PHASE_COLLECTION = "join-attribute-collection"
PHASE_FILTER = "filter-dissemination"
PHASE_FINAL = "final-result"

_REPRESENTATIONS = ("quadtree", "raw", "zlib", "bzip2")


@dataclass(frozen=True)
class SensJoinConfig:
    """Tunable parameters (defaults = the paper's choices)."""

    dmax_bytes: int = constants.DEFAULT_TREECUT_DMAX_BYTES
    subtree_limit_bytes: int = constants.DEFAULT_SUBTREE_FILTER_LIMIT_BYTES
    representation: str = "quadtree"

    def __post_init__(self) -> None:
        if self.dmax_bytes < 0 or self.subtree_limit_bytes < 0:
            raise ValueError("thresholds must be non-negative")
        if self.representation not in _REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {self.representation!r}; "
                f"choose from {_REPRESENTATIONS}"
            )


@dataclass
class _JoinAttrPayload:
    """What a non-treecut node sends upward in step 1a."""

    points: FrozenSet[FlaggedPoint]
    tuple_count: int  # raw (pre-dedup) tuple count, for non-quadtree sizing
    raw_rows: List[Tuple[float, ...]] = field(default_factory=list)


#: A complete tuple with the point its own node quantized it to.
_CarriedTuple = Tuple[FullTupleRecord, FlaggedPoint]


@dataclass
class _NodeState:
    """Per-node protocol state surviving between the three wakeups."""

    record: Optional[FullTupleRecord] = None
    own_point: Optional[FlaggedPoint] = None
    exited: bool = False  # treecut: done after step 1a
    #: Complete tuples stored for Treecut-exited children, with their points.
    proxied: List[_CarriedTuple] = field(default_factory=list)
    subtree_atts: Optional[FrozenSet[FlaggedPoint]] = None
    finish_1a: float = 0.0
    filter_received: FrozenSet[FlaggedPoint] = frozenset()
    filter_arrival: float = 0.0


@dataclass
class SensJoinRun:
    """One query's protocol state, carried through SENS-Join's phases.

    :meth:`SensJoin.begin` allocates it; :meth:`SensJoin.collect`,
    :meth:`SensJoin.disseminate` and :meth:`SensJoin.final` advance it in
    that order.  The caller sets ``join_filter`` between collection and
    dissemination.  ``finish_s`` is the critical-path time at which the
    latest phase run so far ended; ``arrived`` holds the complete tuples
    the final phase delivered to the base station.
    """

    context: ExecutionContext
    fmt: TupleFormat
    states: Dict[int, _NodeState]
    details: Dict[str, float] = field(default_factory=dict)
    join_filter: FrozenSet[FlaggedPoint] = frozenset()
    arrived: List[FullTupleRecord] = field(default_factory=list)
    finish_s: float = 0.0


class SensJoin(JoinAlgorithm):
    """The SENS-Join protocol (see module docstring).

    The engine holds no observation state: every phase reads the run's
    telemetry from ``context.network.channel.telemetry``.
    """

    name = "sens-join"

    def __init__(self, config: SensJoinConfig = SensJoinConfig()):
        self.config = config
        if config.representation != "quadtree":
            self.name = f"sens-join[{config.representation}]"

    # -- payload sizing under the configured representation ---------------------

    def _joinatts_bytes(
        self, sender: int, fmt: TupleFormat, payload: _JoinAttrPayload, tel: Telemetry
    ) -> int:
        if not tel.enabled:
            return self._joinatts_bytes_raw(sender, fmt, payload)
        t0 = time.perf_counter()
        size = self._joinatts_bytes_raw(sender, fmt, payload)
        self._observe_codec(tel, "join-atts", size, time.perf_counter() - t0)
        return size

    def _joinatts_bytes_raw(
        self, sender: int, fmt: TupleFormat, payload: _JoinAttrPayload
    ) -> int:
        representation = self.config.representation
        if representation == "quadtree":
            return fmt.encoded_points_bytes(payload.points)
        if representation == "raw":
            return payload.tuple_count * fmt.raw_join_tuple_bytes
        raw = encode_raw_tuples(
            (dict(zip(fmt.join_attributes, row)) for row in payload.raw_rows),
            fmt.join_attributes,
        )
        return compressed_size(raw, representation)

    def _filter_bytes(
        self, fmt: TupleFormat, points: FrozenSet[FlaggedPoint], tel: Telemetry
    ) -> int:
        if not tel.enabled:
            return self._filter_bytes_raw(fmt, points)
        t0 = time.perf_counter()
        size = self._filter_bytes_raw(fmt, points)
        self._observe_codec(tel, "filter", size, time.perf_counter() - t0)
        return size

    def _filter_bytes_raw(self, fmt: TupleFormat, points: FrozenSet[FlaggedPoint]) -> int:
        if self.config.representation == "quadtree":
            return fmt.encoded_points_bytes(points)
        # Non-quadtree representations ship the filter as raw (quantized
        # representative) tuples; compression never pays off at filter sizes.
        return len(points) * fmt.raw_join_tuple_bytes

    # -- per-node protocol decisions -----------------------------------------------

    def _subtree_atts(
        self, node_id: int, fmt: TupleFormat, atts: FrozenSet[FlaggedPoint], tel: Telemetry,
        at_s: float,
    ) -> Optional[FrozenSet[FlaggedPoint]]:
        """Selective Filter Forwarding memory (Fig. 2 line 21): the children's
        points ``atts`` as ``node_id`` keeps them, or ``None`` to keep none."""
        limit = self.config.subtree_limit_bytes
        if limit == 0:
            return None
        if node_id == BASE_STATION_ID or not atts:
            return atts  # no cap at the base station; an empty set costs nothing
        stored_size = fmt.encoded_points_bytes(atts)
        if stored_size <= limit:
            tel.tracer.emit(at_s, node_id, SUBTREE_STORE, bytes=stored_size)
            return atts
        # Memory cap exceeded (paper: happens "close to the root only"); this
        # node cannot prune the filter.
        if tel.registry.enabled:
            tel.registry.counter("subtree_overflows_total", protocol=self.name).inc()
        tel.tracer.emit(at_s, node_id, SUBTREE_OVERFLOW, bytes=stored_size)
        return None

    def _filter_frame(
        self, node_id: int, fmt: TupleFormat, points: FrozenSet[FlaggedPoint], tel: Telemetry
    ) -> Optional[int]:
        """Bytes of the frame carrying the pruned filter ``points`` to the
        children of ``node_id``; ``None`` (silence) for an empty one."""
        if not points:
            return None
        return self._filter_bytes(fmt, points, tel)

    def _observe_codec(self, tel: Telemetry, kind: str, size: int, wall_s: float) -> None:
        """Feed one encode into the codec histograms (telemetry enabled only)."""
        reg = tel.registry
        rep = self.config.representation
        reg.histogram("codec_encode_wall_seconds", kind=kind, representation=rep).observe(wall_s)
        reg.histogram("codec_payload_bytes", kind=kind, representation=rep).observe(size)

    # -- main protocol -------------------------------------------------------------

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """Run one snapshot execution of the three-step protocol."""
        run = self.begin(context)
        details = run.details
        points = self.collect(run)
        details["collection_finish_s"] = run.finish_s
        run.join_filter = build_join_filter(run.fmt, points)
        details["filter_points"] = float(len(run.join_filter))
        details["filter_bytes"] = float(
            self._filter_bytes(run.fmt, run.join_filter, context.network.channel.telemetry)
        )
        self.disseminate([run], run.finish_s)
        result = self.final(run)

        # Three epoch-scheduled phases (collection, dissemination, final
        # collection; Fig. 1's sleepUntilNextStep boundaries) plus the
        # serialisation overflow accumulated along the critical path.
        phase_overhead = 3 * context.tree.height * constants.DEFAULT_LEVEL_SLOT_S
        return JoinOutcome(
            algorithm=self.name,
            result=result,
            stats=context.network.stats,
            response_time_s=phase_overhead + run.finish_s,
            details=details,
        )

    # -- the protocol's phases, public so that several queries can share them -------

    def begin(self, context: ExecutionContext) -> SensJoinRun:
        """Fresh per-node protocol state for one execution of ``context``."""
        states = {node_id: _NodeState() for node_id in context.tree.node_ids}
        return SensJoinRun(context, context.tuple_format(), states)

    def collect(self, run: SensJoinRun) -> FrozenSet[FlaggedPoint]:
        """Step 1a: the point set the base station collected.

        Sets ``run.finish_s`` to the collection's critical-path finish.
        """
        with run.context.network.channel.telemetry.span(
            PHASE_COLLECTION, node_id=BASE_STATION_ID, start=0.0, protocol=self.name
        ) as sp:
            points, run.finish_s = self._collection_phase(run)
            sp.end = run.finish_s
        return points

    def disseminate(self, runs: Sequence[SensJoinRun], start_s: float) -> int:
        """Step 1b: one pre-order wave carrying every run's ``join_filter``.

        One run is the paper's single-query dissemination.  Several runs
        over the same tree ride the same wave (see :meth:`_filter_phase`).
        Sets every run's ``finish_s`` to the time the wave dies out and
        returns how many broadcasts carried more than one filter.
        """
        with runs[0].context.network.channel.telemetry.span(
            PHASE_FILTER, node_id=BASE_STATION_ID, start=start_s, protocol=self.name
        ) as sp:
            finish, piggybacked = self._filter_phase(runs, start_s)
            sp.end = finish
        for run in runs:
            run.finish_s = finish
        return piggybacked

    def final(self, run: SensJoinRun) -> JoinResult:
        """Step 2: the exact result of the run's own query.

        Sets ``run.arrived`` and moves ``run.finish_s`` to the time the last
        tuple reached the base station.
        """
        start = run.finish_s
        with run.context.network.channel.telemetry.span(
            PHASE_FINAL, node_id=BASE_STATION_ID, start=start, protocol=self.name
        ) as sp:
            result, run.finish_s = self._final_phase(run)
            sp.end = max(start, run.finish_s)
        return result

    # -- step 1a -------------------------------------------------------------------

    def _collection_phase(
        self, run: SensJoinRun
    ) -> Tuple[FrozenSet[FlaggedPoint], float]:
        """Post-order collection with Treecut; returns the base station's
        point set and the critical-path finish time."""
        context, fmt, states, details = run.context, run.fmt, run.states, run.details
        network, tree = context.network, context.tree
        channel = network.channel
        keep_raw = self.config.representation in ("zlib", "bzip2")
        treecut_enabled = self.config.dmax_bytes > 0
        tel = channel.telemetry
        tracer, reg = tel.tracer, tel.registry

        # In-flight child payloads, keyed by sender.
        full_up: Dict[int, List[_CarriedTuple]] = {}
        atts_up: Dict[int, _JoinAttrPayload] = {}
        bytes_up: Dict[int, int] = {}
        proxies = 0
        exited = 0

        for node_id in tree.post_order():
            state = states[node_id]
            children = tree.children(node_id)
            children_finish = max(
                (states[child].finish_1a for child in children), default=0.0
            )

            received_full: List[_CarriedTuple] = []
            received_atts: FrozenSet[FlaggedPoint] = frozenset()
            received_tuple_count = 0
            received_raw: List[Tuple[float, ...]] = []
            all_children_full = True
            received_bytes = 0
            for child in children:
                received_bytes += bytes_up.pop(child)
                if child in full_up:
                    received_full.extend(full_up.pop(child))
                else:
                    payload = atts_up.pop(child)
                    received_atts = union_points(received_atts, payload.points)
                    received_tuple_count += payload.tuple_count
                    received_raw.extend(payload.raw_rows)
                    all_children_full = False

            state.record, flags = node_tuple(fmt, node_id)
            own_bytes = fmt.full_tuple_bytes if state.record is not None else 0
            if state.record is not None:
                join_values = {
                    name: state.record.values[name] for name in fmt.join_attributes
                }
                state.own_point = (flags, fmt.quantizer.encode(join_values))

            # pi_JoinAttr over the proxied tuples (Fig. 2 line 22) is the
            # points they carry.
            carried_points = [point for _record, point in received_full]
            if node_id == BASE_STATION_ID:
                # The base station acts like a proxy for full tuples it
                # received and keeps its children's points as SubtreeJoinAtts.
                state.proxied = received_full
                state.subtree_atts = self._subtree_atts(
                    node_id, fmt, received_atts, tel, children_finish
                )
                bs_points = union_points(received_atts, carried_points)
                state.finish_1a = children_finish
                details["treecut_proxies"] = float(proxies)
                details["treecut_exited"] = float(exited)
                return bs_points, children_finish

            total_full_bytes = received_bytes + own_bytes
            treecut_applies = (
                treecut_enabled
                and all_children_full
                and total_full_bytes <= self.config.dmax_bytes
            )
            if treecut_applies:
                own = [(state.record, state.own_point)] if state.record else []
                records = received_full + own
                payload_bytes = fmt.full_tuples_bytes(len(records))
                channel.unicast(node_id, tree.parent(node_id), payload_bytes, PHASE_COLLECTION)
                full_up[node_id] = records
                bytes_up[node_id] = payload_bytes
                state.exited = True
                exited += 1
                state.finish_1a = children_finish + channel.last_send_latency_s
                if reg.enabled:
                    reg.counter("treecut_exits_total", protocol=self.name).inc()
                tracer.emit(
                    state.finish_1a, node_id, TREECUT_EXIT,
                    tuples=len(records), bytes=payload_bytes,
                )
                continue

            # Act as proxy for complete tuples received from cut children.
            state.proxied = received_full
            if received_full:
                proxies += 1
                if reg.enabled:
                    reg.counter("proxy_stores_total", protocol=self.name).inc()
                    reg.counter(
                        "proxied_tuples_total", protocol=self.name
                    ).inc(len(received_full))
                tracer.emit(
                    children_finish, node_id, PROXY_STORE, tuples=len(received_full)
                )
            state.subtree_atts = self._subtree_atts(
                node_id, fmt, received_atts, tel, children_finish
            )

            if state.own_point is not None:
                carried_points.append(state.own_point)
            points = union_points(received_atts, carried_points)
            tuple_count = received_tuple_count + len(received_full) + (
                1 if state.record is not None else 0
            )
            raw_rows = received_raw
            if keep_raw:
                raw_rows = list(received_raw)
                for record, _point in received_full:
                    raw_rows.append(
                        tuple(record.values[name] for name in fmt.join_attributes)
                    )
                if state.record is not None:
                    raw_rows.append(
                        tuple(state.record.values[name] for name in fmt.join_attributes)
                    )
            payload = _JoinAttrPayload(points, tuple_count, raw_rows)
            payload_bytes = self._joinatts_bytes(node_id, fmt, payload, tel)
            channel.unicast(node_id, tree.parent(node_id), payload_bytes, PHASE_COLLECTION)
            atts_up[node_id] = payload
            bytes_up[node_id] = payload_bytes
            state.finish_1a = children_finish + channel.last_send_latency_s
            tracer.emit(
                state.finish_1a, node_id, SEND_JOIN_ATTS,
                points=len(points), bytes=payload_bytes,
            )

        raise ProtocolError("post-order traversal never reached the base station")

    # -- step 1b -------------------------------------------------------------------

    def _filter_phase(
        self, runs: Sequence[SensJoinRun], start_time: float
    ) -> Tuple[float, int]:
        """Pre-order dissemination with Selective Filter Forwarding.

        Every run prunes its own filter against its own SubtreeJoinAtts, and
        :meth:`_filter_frame` prices it.  At each node the framed filters
        ride one broadcast to the union of their runs' awake children; when
        more than one rides, each is framed by a ``PIGGYBACK_HEADER_BYTES``
        header, so a lone filter costs exactly its own frame.  Returns the
        time the wave dies out (the latest arrival at any node that heard
        it) — the phase-span boundary — and how many broadcasts carried more
        than one filter.
        """
        context = runs[0].context
        tree = context.tree
        channel = context.network.channel
        tel = channel.telemetry
        tracer, reg = tel.tracer, tel.registry

        for run in runs:
            run.states[BASE_STATION_ID].filter_received = run.join_filter
            run.states[BASE_STATION_ID].filter_arrival = start_time
        broadcasts = [0] * len(runs)
        pruned_subtrees = [0] * len(runs)
        piggybacked = 0
        last_arrival = start_time
        # Sibling subtrees regularly receive the same filter and store equal
        # SubtreeJoinAtts (dense deployments quantize to the same cells), so
        # the prune check repeats; memoize it for this wave.
        intersect_memo: Dict[
            Tuple[FrozenSet[FlaggedPoint], FrozenSet[FlaggedPoint]],
            FrozenSet[FlaggedPoint],
        ] = {}

        for node_id in tree.pre_order():
            children = tree.children(node_id)
            if not children:
                continue
            riding = []
            for index, run in enumerate(runs):
                states = run.states
                state = states[node_id]
                if state.exited:
                    continue
                awake = [child for child in children if not states[child].exited]
                if not awake:
                    continue
                subtree_filter = incoming = state.filter_received
                if incoming and state.subtree_atts is not None:
                    memo_key = (incoming, state.subtree_atts)
                    subtree_filter = intersect_memo.get(memo_key)
                    if subtree_filter is None:
                        subtree_filter = intersect_points(incoming, state.subtree_atts)
                        intersect_memo[memo_key] = subtree_filter
                    if not subtree_filter:
                        pruned_subtrees[index] += 1
                        if reg.enabled:
                            reg.counter("filter_pruned_subtrees_total", protocol=self.name).inc()
                        tracer.emit(state.filter_arrival, node_id, FILTER_PRUNED)
                frame = self._filter_frame(node_id, run.fmt, subtree_filter, tel)
                if frame is not None:
                    riding.append((index, subtree_filter, awake, state.filter_arrival, frame))
                elif subtree_filter:  # silence: the children reuse what they hold
                    for child in awake:
                        states[child].filter_received = subtree_filter
                        states[child].filter_arrival = state.filter_arrival
            if not riding:
                continue
            departure = max(arrival for _, _, _, arrival, _ in riding)
            if len(riding) == 1:
                _, subtree_filter, receivers, _, payload_bytes = riding[0]
                channel.broadcast(node_id, receivers, payload_bytes, PHASE_FILTER)
                tracer.emit(
                    departure, node_id, FILTER_BROADCAST,
                    points=len(subtree_filter), bytes=payload_bytes,
                    children=len(receivers),
                )
            else:
                receivers = sorted({c for _, _, awake, _, _ in riding for c in awake})
                frames = sum(frame for _, _, _, _, frame in riding)
                payload_bytes = frames + PIGGYBACK_HEADER_BYTES * len(riding)
                piggybacked += 1
                tracer.emit(
                    departure, node_id, FILTER_PIGGYBACK,
                    filters=len(riding), bytes=payload_bytes,
                )
                channel.broadcast(node_id, receivers, payload_bytes, PHASE_FILTER)
            arrival = departure + channel.last_send_latency_s
            last_arrival = max(last_arrival, arrival)
            for index, subtree_filter, awake_children, _, _ in riding:
                broadcasts[index] += 1
                states = runs[index].states
                for child in awake_children:
                    states[child].filter_received = subtree_filter
                    states[child].filter_arrival = arrival
        for index, run in enumerate(runs):
            run.details["filter_broadcasts"] = float(broadcasts[index])
            run.details["filter_pruned_subtrees"] = float(pruned_subtrees[index])
        return last_arrival, piggybacked

    # -- step 2 --------------------------------------------------------------------

    def _final_phase(self, run: SensJoinRun) -> Tuple[JoinResult, float]:
        """Post-order collection of the complete tuples that match the filter."""
        context, fmt, states, details = run.context, run.fmt, run.states, run.details
        network, tree = context.network, context.tree
        channel = network.channel
        tracer = channel.telemetry.tracer

        carried: Dict[int, List[FullTupleRecord]] = {}
        carried_bytes: Dict[int, int] = {}
        finish: Dict[int, float] = {}
        senders = 0
        # All children of one broadcast share the same filter frozenset;
        # build its z -> flags lookup once instead of per node.
        flags_memo: Dict[FrozenSet[FlaggedPoint], Dict[int, int]] = {}

        for node_id in tree.post_order():
            state = states[node_id]
            if state.exited:
                continue
            records: List[FullTupleRecord] = []
            payload = 0
            children_finish = state.filter_arrival
            for child in tree.children(node_id):
                if states[child].exited:
                    continue
                payload += carried_bytes.pop(child)
                records.extend(carried.pop(child))
                children_finish = max(children_finish, finish[child])

            if node_id == BASE_STATION_ID:
                # Locally stored proxy tuples join for free; the exact final
                # join discards the ones that do not match.
                records.extend(record for record, _point in state.proxied)
                carried[node_id] = records
                finish[node_id] = children_finish
                continue

            matched = self._matching_records(state, flags_memo)
            if matched:
                senders += 1
                tracer.emit(
                    children_finish, node_id, FINAL_SEND, tuples=len(matched)
                )
            records.extend(matched)
            payload += fmt.full_tuples_bytes(len(matched))
            channel.unicast(node_id, tree.parent(node_id), payload, PHASE_FINAL)
            carried[node_id] = records
            carried_bytes[node_id] = payload
            finish[node_id] = children_finish + channel.last_send_latency_s

        arrived = carried[BASE_STATION_ID]
        run.arrived = arrived
        result = evaluate_arrived(context.query, fmt, arrived)

        contributing = result.all_contributing_nodes()
        shipped = {record.node_id for record in arrived}
        details["final_tuples_shipped"] = float(len(arrived))
        details["final_senders"] = float(senders)
        details["false_positives"] = float(len(shipped - contributing))
        return result, finish[BASE_STATION_ID]

    def _matching_records(
        self,
        state: _NodeState,
        flags_memo: Dict[FrozenSet[FlaggedPoint], Dict[int, int]],
    ) -> List[FullTupleRecord]:
        """Own + proxied tuples whose point is in the received filter."""
        incoming = state.filter_received
        if not incoming:
            return []
        filter_flags = flags_memo.get(incoming)
        if filter_flags is None:
            filter_flags = {}
            for flags, z in incoming:
                filter_flags[z] = filter_flags.get(z, 0) | flags
            flags_memo[incoming] = filter_flags
        matched: List[FullTupleRecord] = []
        if state.record is not None and state.own_point is not None:
            own_flags, own_z = state.own_point
            if filter_flags.get(own_z, 0) & own_flags:
                matched.append(state.record)
        for record, (flags, z) in state.proxied:
            if filter_flags.get(z, 0) & flags:
                matched.append(record)
        return matched
