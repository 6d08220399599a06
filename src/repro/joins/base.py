"""Shared infrastructure for the join algorithms.

Everything a join method needs to run is bundled in an
:class:`ExecutionContext`: the deployed network, the converged routing tree,
the world (snapshot data + relation membership) and the parsed query.
:class:`TupleFormat` derives the wire-level facts from the query — which
attributes form the join-attribute tuple and the full tuple per alias, their
byte sizes, and the quantizer/codec shared network-wide.

Per-node tuple construction follows Fig. 1 line 8: a node produces its tuple
from local sensor data; the constructor "returns NULL if (T not in A) and
(T not in B)" or if the tuple fails the per-alias selection predicates.
:func:`node_tuple` returns the tuple plus its *alias flags* — one bit per
FROM-clause alias (MSB = first alias), the generalisation of the paper's
two-bit relation flags ('10' = A, '01' = B, '11' = both, §V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import constants
from ..codec.quadtree import FlaggedPoint, QuadtreeCodec
from ..codec.quantize import Quantizer
from ..data.relations import SensorWorld
from ..errors import ProtocolError, QueryError
from ..query.evaluate import JoinResult, Row, evaluate_join
from ..query.expressions import Predicate
from ..query.query import JoinQuery
from ..routing.tree import RoutingTree
from ..sim.network import Network
from ..sim.stats import TransmissionStats

__all__ = [
    "ExecutionContext",
    "TupleFormat",
    "FullTupleRecord",
    "JoinOutcome",
    "JoinAlgorithm",
    "node_tuple",
    "oracle_result",
]


@dataclass(frozen=True)
class FullTupleRecord:
    """A complete tuple travelling through the network.

    ``flags`` records which aliases the originating node can serve (bit per
    alias, MSB-first); ``values`` holds the full-tuple attributes.
    """

    node_id: int
    flags: int
    values: Mapping[str, float]


class TupleFormat:
    """Wire-format facts derived from a query and a sensor catalogue."""

    def __init__(
        self,
        query: JoinQuery,
        world: SensorWorld,
        bytes_per_attribute: int = constants.BYTES_PER_ATTRIBUTE,
    ):
        query.require_join()
        query.validate_attributes(world.catalog)
        self.query = query
        self.world = world
        self.bytes_per_attribute = bytes_per_attribute
        self.aliases: List[str] = query.aliases
        #: Union over aliases — in a self-join the attribute sets coincide
        #: and a node sends each value once (§IV-B: "we avoid sending
        #: attribute values redundantly").
        self.join_attributes: List[str] = sorted(
            {attr for alias in self.aliases for attr in query.join_attributes(alias)}
        )
        self.full_attributes: List[str] = sorted(
            {attr for alias in self.aliases for attr in query.full_tuple_attributes(alias)}
        )
        if not self.join_attributes:
            raise QueryError("query has no join attributes")
        self.quantizer = Quantizer.for_attributes(world.catalog, self.join_attributes)
        self.codec = QuadtreeCodec.for_quantizer(self.quantizer, alias_count=len(self.aliases))
        #: Per alias, what :func:`node_tuple` tests at every node:
        #: ``alias -> (relation, selection predicates, flag bit)``.  Splitting
        #: the WHERE clause once here spares a re-split per node and alias.
        self.alias_plan: Dict[str, Tuple[str, Tuple[Predicate, ...], int]] = {
            alias: (
                query.relation_of(alias),
                tuple(query.selection_predicates(alias)),
                self.alias_bit(alias),
            )
            for alias in self.aliases
        }
        # Size-only encodes repeat heavily: the same point set is re-sized at
        # every unpruned hop of a filter chain and in every store/forward
        # decision.  frozenset keys make the memo safe (immutable) and cheap
        # (CPython caches a frozenset's hash after the first use).
        self._size_memo: Dict[frozenset, int] = {}

    # -- sizes -------------------------------------------------------------------

    @property
    def full_tuple_bytes(self) -> int:
        """Wire size of one complete tuple."""
        return len(self.full_attributes) * self.bytes_per_attribute

    @property
    def raw_join_tuple_bytes(self) -> int:
        """Wire size of one *raw* (uncompacted) join-attribute tuple."""
        return len(self.join_attributes) * self.bytes_per_attribute

    def full_tuples_bytes(self, count: int) -> int:
        """Wire size of ``count`` complete tuples (multiset, §IV-B)."""
        return count * self.full_tuple_bytes

    def encoded_points_bytes(self, points: Sequence[FlaggedPoint] | frozenset) -> int:
        """Wire size of a point set under the quadtree representation.

        Results are memoized per frozenset (equal sets hit the same entry
        even as distinct objects); mutable sequences are sized directly.
        """
        if isinstance(points, frozenset):
            cached = self._size_memo.get(points)
            if cached is None:
                if len(self._size_memo) >= 4096:  # long incremental runs stay bounded
                    self._size_memo.clear()
                cached = (self.codec.encoded_size_bits(points) + 7) // 8
                self._size_memo[points] = cached
            return cached
        bits = self.codec.encoded_size_bits(points)
        return (bits + 7) // 8

    # -- flags -------------------------------------------------------------------

    def alias_bit(self, alias: str) -> int:
        """The flag bit for ``alias`` (MSB = first alias)."""
        position = self.aliases.index(alias)
        return 1 << (len(self.aliases) - 1 - position)

    def aliases_of_flags(self, flags: int) -> List[str]:
        """Aliases named by a flag combination."""
        return [alias for alias in self.aliases if flags & self.alias_bit(alias)]


def node_tuple(
    fmt: TupleFormat, node_id: int
) -> Tuple[Optional[FullTupleRecord], int]:
    """Construct a node's tuple and alias flags (Fig. 1 line 8).

    Returns ``(record, flags)``; ``record`` is None (and flags 0) when the
    node belongs to none of the queried relations or fails every alias's
    selection predicates.
    """
    node = fmt.world.network.nodes[node_id]
    if not node.alive or node.is_base_station:
        return None, 0
    flags = 0
    for alias, (relation, predicates, bit) in fmt.alias_plan.items():
        if not node.belongs_to(relation):
            continue
        if predicates:
            env = {(alias, name): value for name, value in node.readings.items()}
            if not all(pred.evaluate(env) for pred in predicates):
                continue
        flags |= bit
    if flags == 0:
        return None, 0
    try:
        values = {name: node.readings[name] for name in fmt.full_attributes}
    except KeyError as missing:
        raise ProtocolError(
            f"node {node_id} lacks reading {missing}; was a snapshot taken?"
        ) from None
    return FullTupleRecord(node_id, flags, values), flags


def oracle_result(context: "ExecutionContext") -> JoinResult:
    """The lossless join result over every currently alive sensor node.

    Computed centrally, bypassing the network entirely — the reference the
    §IV-F completeness accounting measures recall against.  Call it *before*
    injecting faults: it reflects the node population at call time.
    """
    fmt = context.tuple_format()
    tuples: Dict[str, List[Row]] = {alias: [] for alias in fmt.aliases}
    for node_id in context.network.sensor_node_ids:
        record, _flags = node_tuple(fmt, node_id)
        if record is None:
            continue
        for alias in fmt.aliases_of_flags(record.flags):
            tuples[alias].append(Row(record.node_id, dict(record.values)))
    return evaluate_join(context.query, tuples, apply_selections=False)


@dataclass(frozen=True)
class ExecutionContext:
    """Everything a join algorithm needs for one execution."""

    network: Network
    tree: RoutingTree
    world: SensorWorld
    query: JoinQuery

    def tuple_format(self) -> TupleFormat:
        """Derive the wire format for this query."""
        return TupleFormat(self.query, self.world)


@dataclass
class JoinOutcome:
    """Result + cost accounting of one join execution."""

    algorithm: str
    result: JoinResult
    stats: TransmissionStats
    #: Simulated wall-clock duration (critical-path estimate, §VII study).
    response_time_s: float
    #: Algorithm-specific diagnostics (filter sizes, treecut counts, ...).
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def total_transmissions(self) -> int:
        """Network-wide packet transmissions, excluding query dissemination."""
        phases = [p for p in self.stats.tx_packets_by_phase() if p != "query-dissemination"]
        return self.stats.total_tx_packets(phases)

    @property
    def total_bytes(self) -> int:
        """Network-wide payload bytes, excluding query dissemination."""
        phases = [p for p in self.stats.tx_packets_by_phase() if p != "query-dissemination"]
        return self.stats.total_tx_bytes(phases)

    @property
    def total_retransmissions(self) -> int:
        """Network-wide ARQ retransmissions, excluding query dissemination.

        Zero on a lossless channel; under loss this is the extra radio load
        the paper's transmission metric does not see.
        """
        phases = [
            p for p in self.stats.retx_packets_by_phase() if p != "query-dissemination"
        ]
        return self.stats.total_retx_packets(phases)

    def per_phase_transmissions(self) -> Dict[str, int]:
        """Breakdown by protocol phase (Fig. 15)."""
        return self.stats.tx_packets_by_phase()

    def per_phase_retransmissions(self) -> Dict[str, int]:
        """ARQ retransmission breakdown by protocol phase."""
        return self.stats.retx_packets_by_phase()

    def max_node_transmissions(self) -> int:
        """Load of the most loaded node (Fig. 11 headline number)."""
        phases = [p for p in self.stats.tx_packets_by_phase() if p != "query-dissemination"]
        return self.stats.max_node_tx_packets(phases)

    def result_set(self, digits: int = 9) -> frozenset:
        """Uniform cross-engine comparison hook (differential testing).

        Delegates to :meth:`repro.query.evaluate.JoinResult.result_set`:
        two outcomes computed the same result iff their result sets are
        equal, and a partial (faulted) outcome's set is a subset of the
        lossless oracle's.  Every engine returns a :class:`JoinOutcome`,
        so this hook is available regardless of how the engine was driven
        (``execute`` or ``run_round``).
        """
        return self.result.result_set(digits)


class JoinAlgorithm:
    """Interface every join method implements."""

    name = "abstract"

    def execute(self, context: ExecutionContext) -> JoinOutcome:
        """Run one snapshot execution and return result + accounting."""
        raise NotImplementedError

    def instrument(self, telemetry) -> None:
        """Attach a live :class:`~repro.obs.telemetry.Telemetry`.

        The default is a no-op: algorithms without internal instrumentation
        still profit from the channel-level counters the runner wires up.
        Overriders (e.g. SENS-Join) additionally emit phase spans and
        protocol-decision counters.
        """
