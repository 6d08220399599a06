"""Transmission statistics collection.

The experiments in §VI report two families of quantities:

* **overall communication costs** — the total number of link-layer
  transmissions across the whole network for one query execution, optionally
  broken down by protocol phase (Fig. 15);
* **per-node communication costs** — transmissions per node, plotted against
  the node's number of routing-tree descendants (Fig. 11), because the most
  loaded nodes (near the root) determine network lifetime.

:class:`TransmissionStats` is the single accounting store: the channel
writes each send into it once, and nothing else records traffic.  Every
record is tagged with the node and a phase label, so any of the paper's
breakdowns can be recovered afterwards, and energy is these counts priced
by an :class:`~repro.sim.energy.EnergyModel` when read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from .energy import EnergyModel

__all__ = ["TransmissionStats", "NodeLoad", "PHASE_LABELS"]

#: Canonical phase labels used by the protocols in :mod:`repro.joins`.
PHASE_LABELS = (
    "query-dissemination",
    "join-attribute-collection",
    "filter-dissemination",
    "final-result",
    "external-collection",
    "tree-maintenance",
)


@dataclass(frozen=True)
class NodeLoad:
    """Per-node load summary row (one point in a Fig. 11 style scatter)."""

    node_id: int
    descendants: int
    tx_packets: int
    tx_bytes: int
    rx_packets: int
    rx_bytes: int
    #: ARQ retransmissions; zero on a lossless channel.
    retx_packets: int = 0
    retx_bytes: int = 0

    @property
    def total_packets(self) -> int:
        """Transmitted plus received packets (radio duty proxy).

        Retransmissions are excluded so the value matches the paper's
        lossless transmission metric; add :attr:`retx_packets` for the full
        radio duty under loss.
        """
        return self.tx_packets + self.rx_packets


class TransmissionStats:
    """Accumulates per-node, per-phase packet and byte counters."""

    def __init__(self) -> None:
        self._tx_packets: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._tx_bytes: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._rx_packets: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._rx_bytes: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._retx_packets: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._retx_bytes: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- recording ----------------------------------------------------------

    def record_tx(self, node_id: int, phase: str, packets: int, payload_bytes: int) -> None:
        """Record that ``node_id`` transmitted ``packets`` in ``phase``."""
        if packets < 0 or payload_bytes < 0:
            raise ValueError("packet and byte counts must be non-negative")
        self._tx_packets[node_id][phase] += packets
        self._tx_bytes[node_id][phase] += payload_bytes

    def record_rx(self, node_id: int, phase: str, packets: int, payload_bytes: int) -> None:
        """Record that ``node_id`` received ``packets`` in ``phase``."""
        if packets < 0 or payload_bytes < 0:
            raise ValueError("packet and byte counts must be non-negative")
        self._rx_packets[node_id][phase] += packets
        self._rx_bytes[node_id][phase] += payload_bytes

    def record_retx(self, node_id: int, phase: str, packets: int, payload_bytes: int) -> None:
        """Record ARQ retransmissions by ``node_id`` in ``phase``.

        Kept in a separate dimension from :meth:`record_tx` so loss studies
        never perturb the paper's first-transmission metric.
        """
        if packets < 0 or payload_bytes < 0:
            raise ValueError("packet and byte counts must be non-negative")
        self._retx_packets[node_id][phase] += packets
        self._retx_bytes[node_id][phase] += payload_bytes

    # -- aggregation ---------------------------------------------------------

    @staticmethod
    def _phase_sums(
        table: Dict[int, Dict[str, int]], phases: Iterable[str] | None = None
    ) -> Dict[str, int]:
        """Network-wide count per phase of one table, optionally restricted."""
        wanted = None if phases is None else set(phases)
        result: Dict[str, int] = defaultdict(int)
        for by_phase in table.values():
            for phase, count in by_phase.items():
                if wanted is None or phase in wanted:
                    result[phase] += count
        return dict(result)

    @staticmethod
    def _node_sum(
        table: Dict[int, Dict[str, int]],
        node_id: int,
        phases: Iterable[str] | None = None,
    ) -> int:
        """One node's count in one table, optionally restricted to phases."""
        by_phase = table.get(node_id, {})
        if phases is None:
            return sum(by_phase.values())
        wanted = set(phases)
        return sum(count for phase, count in by_phase.items() if phase in wanted)

    def total_tx_packets(self, phases: Iterable[str] | None = None) -> int:
        """Total transmissions network-wide, optionally restricted to phases."""
        return sum(self._phase_sums(self._tx_packets, phases).values())

    def total_tx_bytes(self, phases: Iterable[str] | None = None) -> int:
        """Total payload bytes transmitted network-wide."""
        return sum(self._phase_sums(self._tx_bytes, phases).values())

    def tx_packets_by_phase(self) -> Dict[str, int]:
        """Network-wide transmissions per phase (Fig. 15 breakdown)."""
        return self._phase_sums(self._tx_packets)

    def node_tx_packets(self, node_id: int, phases: Iterable[str] | None = None) -> int:
        """Transmissions by one node, optionally restricted to phases."""
        return self._node_sum(self._tx_packets, node_id, phases)

    def node_rx_packets(self, node_id: int, phases: Iterable[str] | None = None) -> int:
        """Packets received by one node, optionally restricted to phases."""
        return self._node_sum(self._rx_packets, node_id, phases)

    def total_retx_packets(self, phases: Iterable[str] | None = None) -> int:
        """Total ARQ retransmissions network-wide, optionally per phases."""
        return sum(self._phase_sums(self._retx_packets, phases).values())

    def retx_packets_by_phase(self) -> Dict[str, int]:
        """Network-wide ARQ retransmissions per phase."""
        return self._phase_sums(self._retx_packets)

    def node_retx_packets(self, node_id: int) -> int:
        """ARQ retransmissions by one node across all phases."""
        return self._node_sum(self._retx_packets, node_id)

    def node_energy(self, node_id: int, model: EnergyModel) -> float:
        """Energy one node spent, priced by ``model``.

        Transmissions and ARQ retransmissions pay the transmit prices,
        receptions the receive prices.
        """
        return model.tx_energy(
            self._node_sum(self._tx_packets, node_id)
            + self._node_sum(self._retx_packets, node_id),
            self._node_sum(self._tx_bytes, node_id)
            + self._node_sum(self._retx_bytes, node_id),
        ) + model.rx_energy(
            self._node_sum(self._rx_packets, node_id),
            self._node_sum(self._rx_bytes, node_id),
        )

    def total_energy(self, model: EnergyModel) -> float:
        """Network-wide energy, priced by ``model`` like :meth:`node_energy`.

        Priced from the network-wide counts, so one read walks each table
        once.  It equals the sum of every node's :meth:`node_energy` exactly
        whenever the prices are binary fractions, as the defaults are.
        """

        def total(table: Dict[int, Dict[str, int]]) -> int:
            return sum(self._phase_sums(table).values())

        return model.tx_energy(
            total(self._tx_packets) + total(self._retx_packets),
            total(self._tx_bytes) + total(self._retx_bytes),
        ) + model.rx_energy(total(self._rx_packets), total(self._rx_bytes))

    def per_node_loads(self, descendants: Mapping[int, int]) -> list[NodeLoad]:
        """Per-node load rows joined with routing-tree descendant counts.

        ``descendants`` maps node id -> number of descendants; nodes present
        in either mapping appear in the output (missing counters are zero).
        """
        node_ids = (
            set(descendants)
            | set(self._tx_packets)
            | set(self._rx_packets)
            | set(self._retx_packets)
        )
        node_sum = self._node_sum
        rows = []
        for node_id in sorted(node_ids):
            rows.append(
                NodeLoad(
                    node_id=node_id,
                    descendants=descendants.get(node_id, 0),
                    tx_packets=node_sum(self._tx_packets, node_id),
                    tx_bytes=node_sum(self._tx_bytes, node_id),
                    rx_packets=node_sum(self._rx_packets, node_id),
                    rx_bytes=node_sum(self._rx_bytes, node_id),
                    retx_packets=node_sum(self._retx_packets, node_id),
                    retx_bytes=node_sum(self._retx_bytes, node_id),
                )
            )
        return rows

    def max_node_tx_packets(self, phases: Iterable[str] | None = None) -> int:
        """Transmissions of the most loaded node (network-lifetime proxy)."""
        best = 0
        for node_id in self._tx_packets:
            best = max(best, self.node_tx_packets(node_id, phases))
        return best
