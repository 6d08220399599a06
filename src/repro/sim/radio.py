"""Link-layer model: packetization, packet loss and the shared radio channel.

The paper's cost metric is the number of link-layer transmissions given a
maximum packet size (48 bytes by default, 124 bytes in the §VI-A study).  A
payload of *n* bytes therefore costs ``ceil(n / max_packet)`` transmissions
per hop.  :class:`PacketFormat` captures that rule; :class:`Channel` applies
it on every hop, recording each send once in the
:class:`~repro.sim.stats.TransmissionStats` store (energy is priced from
those counts when read), and—when executed under the discrete-event
kernel—imposing per-packet latency.

A *broadcast* costs the sender one transmission burst regardless of how many
neighbours listen; every listed receiver pays the receive cost.  This matters
for Filter-Dissemination, where a node broadcasts the pruned filter once to
all its children (§IV-C, Fig. 3: ``broadcast(SubtreeFilter)``).

Lossy links and ARQ (§IV-F)
---------------------------
The paper evaluates on ns-2 with a realistic radio; message loss is absorbed
by the link layer, which retransmits until delivery.  The channel models
this when given a per-link loss probability (the network derives it from a
:class:`~repro.sim.network.LinkQuality` model): each packet independently
needs a geometrically distributed number of attempts, bounded by
:class:`ArqConfig.max_retries`.  Retransmissions are recorded in the
store's *retransmission* dimension and priced like transmissions, so they
cost the sender energy but never inflate the paper's first-transmission
metric.  Each retry also costs an ACK-timeout with exponential backoff,
surfaced through :attr:`Channel.last_send_latency_s` so the response-time
studies see the cost of unreliable links.

Two deliberate accounting simplifications: the retry bound caps the *charged*
attempts (delivery itself is persistent, so protocol results stay exact —
the residual loss beyond ``max_retries`` retries is below 1e-4 at the rates
studied), and loss draws use inverse-transform sampling with exactly one
uniform draw per packet per receiver, so retransmission counts are
*pointwise monotone* in the loss rate under a fixed seed.

Without a loss model the channel is byte-for-byte the lossless channel: no
random draws, no extra charges, no latency difference.

Dead links (§IV-F)
------------------
When the network supplies a ``link_up`` predicate, a send towards a dead
node or over a failed link *fails*: the sender spends its first
transmissions plus the full ARQ retry budget (that is the cost of detecting
the silence — ``max_retries`` unacknowledged attempts per packet, no random
draw involved), the receiver is charged nothing, and
:attr:`Channel.last_send_delivered` reports the failure so the protocol
layer can model the resulting stall.  A broadcast charges receive costs only
to the listeners that are actually reachable
(:attr:`Channel.last_broadcast_reached`).  With every link up the predicate
changes nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional

from .. import constants
from ..errors import SimulationError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .energy import EnergyModel
from .stats import TransmissionStats
from .trace import LINK_DEAD, LINK_RETX, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Environment

__all__ = ["PacketFormat", "ArqConfig", "Channel"]


@dataclass(frozen=True)
class PacketFormat:
    """Fixed maximum packet size; converts byte counts to packet counts."""

    max_packet_bytes: int = constants.DEFAULT_MAX_PACKET_BYTES

    def __post_init__(self) -> None:
        if self.max_packet_bytes <= 0:
            raise ValueError(
                f"max_packet_bytes must be positive, got {self.max_packet_bytes}"
            )

    def packets_for(self, payload_bytes: int) -> int:
        """Number of transmissions needed for ``payload_bytes`` on one hop.

        Zero bytes means nothing is sent (zero packets); otherwise the count
        is ``ceil(payload / max_packet)``.
        """
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        if payload_bytes == 0:
            return 0
        return math.ceil(payload_bytes / self.max_packet_bytes)

    def bytes_for_packets(self, packets: int) -> int:
        """Maximum payload that fits in ``packets`` transmissions."""
        if packets < 0:
            raise ValueError(f"negative packet count: {packets}")
        return packets * self.max_packet_bytes

    def fragment_sizes(self, payload_bytes: int) -> list[int]:
        """Per-packet payload bytes: full packets plus the remainder."""
        packets = self.packets_for(payload_bytes)
        if packets == 0:
            return []
        sizes = [self.max_packet_bytes] * (packets - 1)
        sizes.append(payload_bytes - self.max_packet_bytes * (packets - 1))
        return sizes


@dataclass(frozen=True)
class ArqConfig:
    """Link-layer retransmission policy (stop-and-wait with backoff)."""

    max_retries: int = constants.DEFAULT_ARQ_MAX_RETRIES
    ack_timeout_s: float = constants.DEFAULT_ARQ_ACK_TIMEOUT_S
    backoff_factor: float = constants.DEFAULT_ARQ_BACKOFF_FACTOR

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"negative retry bound: {self.max_retries}")
        if self.ack_timeout_s < 0:
            raise ValueError(f"negative ACK timeout: {self.ack_timeout_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_delay_s(self, retries: int) -> float:
        """Total ACK-timeout wait accumulated over ``retries`` retransmissions."""
        if retries < 0:
            raise ValueError(f"negative retry count: {retries}")
        delay = 0.0
        timeout = self.ack_timeout_s
        for _ in range(retries):
            delay += timeout
            timeout *= self.backoff_factor
        return delay


class Channel:
    """Accounting layer every protocol hop goes through.

    The channel does not route; callers name the receiver(s) explicitly (the
    routing tree decides who talks to whom).  It enforces the packetization
    rule and records every send once in the statistics store: the sender's
    transmission, one reception per listener reached, and the sender's ARQ
    retransmissions.  ``nodes`` holds the ids it accepts; a send naming any
    other node raises :class:`~repro.errors.SimulationError`.
    ``energy_model`` prices the per-send energy counters of an attached
    telemetry registry.  With an :class:`~repro.sim.kernel.Environment`
    attached, the ``latency_for`` helper lets protocol processes model
    per-packet delay.

    When ``loss_probability`` is given (a callable ``(sender, receiver) ->
    probability``), every packet additionally runs through the bounded ARQ
    described in the module docstring; without it the channel is lossless
    and behaves exactly as before.
    """

    def __init__(
        self,
        packet_format: PacketFormat,
        stats: TransmissionStats,
        nodes: Collection[int],
        hop_latency_s: float = constants.DEFAULT_HOP_LATENCY_S,
        env: Optional["Environment"] = None,
        loss_probability: Optional[Callable[[int, int], float]] = None,
        arq: Optional[ArqConfig] = None,
        arq_seed: int = 0,
        tracer: Optional[Tracer] = None,
        link_up: Optional[Callable[[int, int], bool]] = None,
        telemetry: Optional[Telemetry] = None,
        energy_model: Optional[EnergyModel] = None,
    ):
        self.packet_format = packet_format
        self.stats = stats
        self.nodes = nodes
        self.energy_model = energy_model or EnergyModel()
        self.hop_latency_s = hop_latency_s
        self.env = env
        self.loss_probability = loss_probability
        self.arq = arq or ArqConfig()
        # Not `tracer or ...`: an empty ListTracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Metrics sink for per-node/per-phase traffic and energy counters;
        #: disabled by default so the packet hot path pays one bool check.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: ``(sender, receiver) -> bool``; None means every link is up.
        self.link_up = link_up
        #: Serialisation + ARQ latency of the most recent send (zero when the
        #: last send carried nothing).  Equals ``latency_for(payload)`` on a
        #: lossless channel.
        self.last_send_latency_s = 0.0
        #: Whether the most recent non-empty send reached every receiver.
        self.last_send_delivered = True
        #: Receivers the most recent broadcast actually reached.
        self.last_broadcast_reached: tuple[int, ...] = ()
        #: ARQ latency (retransmission serialisation + backoff) accumulated
        #: since the last :meth:`reset_arq`.
        self.total_arq_delay_s = 0.0
        self._arq_seed = arq_seed
        self._rng = random.Random(arq_seed)

    def _require_known(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise SimulationError(f"unknown node {node_id}")

    # -- ARQ internals -------------------------------------------------------

    @property
    def lossy(self) -> bool:
        """True when a per-link loss model is attached."""
        return self.loss_probability is not None

    def reset_arq(self) -> None:
        """Re-seed the loss draws and zero the ARQ latency accumulator.

        Called between independent query executions so every run sees the
        same deterministic loss realisation regardless of history.
        """
        self._rng = random.Random(self._arq_seed)
        self.last_send_latency_s = 0.0
        self.total_arq_delay_s = 0.0
        self.last_send_delivered = True
        self.last_broadcast_reached = ()

    def _draw_retries(self, p_loss: float) -> int:
        """Retransmissions one packet needs on a link losing ``p_loss``.

        Inverse-transform geometric sampling: exactly one uniform draw is
        consumed whatever ``p_loss`` is, so under a fixed seed the retry
        count is monotone in the loss rate (a higher rate can only add
        retries to the same draw sequence, never shuffle it).
        """
        u = self._rng.random()
        if p_loss <= 0.0:
            return 0
        if p_loss >= 1.0 or u <= 0.0:
            return self.arq.max_retries
        retries = int(math.log(u) / math.log(p_loss))
        return min(retries, self.arq.max_retries)

    def _now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def _record_send(
        self,
        sender: int,
        reached: tuple[int, ...],
        phase: str,
        packets: int,
        payload_bytes: int,
    ) -> None:
        """Record the sender's transmission and one reception per reached listener."""
        self._require_known(sender)
        self.stats.record_tx(sender, phase, packets, payload_bytes)
        for receiver in reached:
            self._require_known(receiver)
            self.stats.record_rx(receiver, phase, packets, payload_bytes)
        reg = self.telemetry.registry
        if not reg.enabled:
            return
        tx_cost = self.energy_model.tx_energy(packets, payload_bytes)
        reg.counter("tx_packets_total", node=sender, phase=phase).inc(packets)
        reg.counter("tx_bytes_total", node=sender, phase=phase).inc(payload_bytes)
        reg.counter("energy_joules_total", node=sender, phase=phase, op="tx").inc(tx_cost)
        rx_cost = self.energy_model.rx_energy(packets, payload_bytes)
        for receiver in reached:
            reg.counter("rx_packets_total", node=receiver, phase=phase).inc(packets)
            reg.counter("rx_bytes_total", node=receiver, phase=phase).inc(payload_bytes)
            reg.counter("energy_joules_total", node=receiver, phase=phase, op="rx").inc(rx_cost)

    def _record_retries(
        self,
        sender: int,
        phase: str,
        retx_packets: int,
        retx_bytes: int,
        receivers: tuple[int, ...],
    ) -> float:
        """Record ARQ retries; returns the extra latency incurred."""
        if retx_packets == 0:
            return 0.0
        self.stats.record_retx(sender, phase, retx_packets, retx_bytes)
        reg = self.telemetry.registry
        if reg.enabled:
            cost = self.energy_model.tx_energy(retx_packets, retx_bytes)
            reg.counter("retx_packets_total", node=sender, phase=phase).inc(retx_packets)
            reg.counter("retx_bytes_total", node=sender, phase=phase).inc(retx_bytes)
            reg.counter("energy_joules_total", node=sender, phase=phase, op="retx").inc(cost)
        arq_delay = (
            retx_packets * self.hop_latency_s
            + self.arq.backoff_delay_s(retx_packets)
        )
        self.total_arq_delay_s += arq_delay
        self.tracer.emit(
            self._now(), sender, LINK_RETX,
            receivers=receivers, phase=phase, retries=retx_packets,
            bytes=retx_bytes,
        )
        return arq_delay

    # -- sends ---------------------------------------------------------------

    def unicast(self, sender: int, receiver: int, payload_bytes: int, phase: str) -> int:
        """Send ``payload_bytes`` from ``sender`` to ``receiver``.

        Returns the number of packets transmitted (0 for an empty payload);
        ARQ retransmissions are accounted separately and not included.
        Check :attr:`last_send_delivered` afterwards: a send over a dead
        link spends the sender's full ARQ budget but delivers nothing.
        """
        packets = self.packet_format.packets_for(payload_bytes)
        self.last_send_latency_s = 0.0
        self.last_send_delivered = True
        if packets == 0:
            return 0
        delivered = self.link_up is None or self.link_up(sender, receiver)
        retx_packets = 0
        retx_bytes = 0
        if not delivered:
            # No ACK will ever come: the stop-and-wait ARQ retries each
            # packet to its bound and gives up.  Deterministic — no draw.
            retx_packets = self.arq.max_retries * packets
            retx_bytes = self.arq.max_retries * payload_bytes
        elif self.loss_probability is not None:
            p_loss = self.loss_probability(sender, receiver)
            for size in self.packet_format.fragment_sizes(payload_bytes):
                retries = self._draw_retries(p_loss)
                retx_packets += retries
                retx_bytes += retries * size
        self._record_send(
            sender, (receiver,) if delivered else (), phase, packets, payload_bytes
        )
        arq_delay = self._record_retries(
            sender, phase, retx_packets, retx_bytes, (receiver,)
        )
        self.last_send_latency_s = packets * self.hop_latency_s + arq_delay
        if not delivered:
            self.last_send_delivered = False
            self.tracer.emit(
                self._now(), sender, LINK_DEAD,
                receiver=receiver, phase=phase, bytes=payload_bytes,
            )
        return packets

    def broadcast(
        self, sender: int, receivers: Iterable[int], payload_bytes: int, phase: str
    ) -> int:
        """Broadcast to all ``receivers``: one tx burst, one rx per listener.

        With no receivers nothing is transmitted at all — a leaf with no
        children must not pay for a broadcast nobody hears.  Under loss the
        sender repeats each packet until the *worst* listener has a copy
        (bounded by the ARQ policy); listeners are charged one receive per
        packet (duplicate copies overheard during retries are free).
        """
        receiver_ids = tuple(receivers)
        packets = self.packet_format.packets_for(payload_bytes)
        self.last_send_latency_s = 0.0
        self.last_send_delivered = True
        self.last_broadcast_reached = receiver_ids
        if packets == 0 or not receiver_ids:
            self.last_broadcast_reached = ()
            return 0
        if self.link_up is None:
            reached = receiver_ids
        else:
            reached = tuple(r for r in receiver_ids if self.link_up(sender, r))
        retx_packets = 0
        retx_bytes = 0
        if len(reached) < len(receiver_ids):
            # An unreachable listener never ACKs, so the sender repeats each
            # packet to the ARQ bound regardless of the others; that budget
            # dominates any loss-induced retries, so no draws are consumed.
            retx_packets = self.arq.max_retries * packets
            retx_bytes = self.arq.max_retries * payload_bytes
        elif self.loss_probability is not None:
            losses = [
                self.loss_probability(sender, receiver) for receiver in receiver_ids
            ]
            for size in self.packet_format.fragment_sizes(payload_bytes):
                retries = max(self._draw_retries(p_loss) for p_loss in losses)
                retx_packets += retries
                retx_bytes += retries * size
        self._record_send(sender, reached, phase, packets, payload_bytes)
        arq_delay = self._record_retries(
            sender, phase, retx_packets, retx_bytes, receiver_ids
        )
        self.last_send_latency_s = packets * self.hop_latency_s + arq_delay
        self.last_broadcast_reached = reached
        if len(reached) < len(receiver_ids):
            self.last_send_delivered = False
            missed = tuple(r for r in receiver_ids if r not in reached)
            self.tracer.emit(
                self._now(), sender, LINK_DEAD,
                receivers=missed, phase=phase, bytes=payload_bytes,
            )
        return packets

    def latency_for(self, payload_bytes: int) -> float:
        """Serialisation duration of ``payload_bytes`` over one lossless hop.

        Pure function of the payload; ARQ costs of an actual send are in
        :attr:`last_send_latency_s`.
        """
        return self.packet_format.packets_for(payload_bytes) * self.hop_latency_s
