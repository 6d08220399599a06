"""Radio energy accounting.

The paper's headline metric is the number of link-layer transmissions, but it
repeatedly argues from the underlying energy characteristics of real radios
(MicaZ, SunSPOT): the *per-packet* overhead (channel acquisition,
synchronisation, headers) dominates the *per-byte* cost, so that "removing
about 10 bytes from a packet incurs a saving in the order of 5%" (§IV-B,
footnote 1).  This module models exactly that: an affine cost per packet,

    E_tx(packet) = tx_per_packet + payload_bytes * tx_per_byte

plus the symmetric receive-side cost.  Nothing is charged as it happens:
the channel records each send's packet and byte counts once, in the
:class:`~repro.sim.stats.TransmissionStats` store, and a node's energy is
those counts priced by this model when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants

__all__ = ["EnergyModel"]


@dataclass(frozen=True)
class EnergyModel:
    """Affine per-packet energy cost model (abstract energy units).

    The default parameters are tuned so that a full 48-byte payload costs
    about 1.5x the bare packet overhead, which reproduces the paper's
    observation that shaving ~10 bytes off a packet saves only ~5% of its
    transmission energy.
    """

    tx_per_packet: float = constants.DEFAULT_TX_COST_PER_PACKET
    tx_per_byte: float = constants.DEFAULT_TX_COST_PER_BYTE
    rx_per_packet: float = constants.DEFAULT_RX_COST_PER_PACKET
    rx_per_byte: float = constants.DEFAULT_RX_COST_PER_BYTE

    def tx_cost(self, payload_bytes: int) -> float:
        """Energy to transmit one packet carrying ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        return self.tx_per_packet + payload_bytes * self.tx_per_byte

    def rx_cost(self, payload_bytes: int) -> float:
        """Energy to receive one packet carrying ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        return self.rx_per_packet + payload_bytes * self.rx_per_byte

    def tx_energy(self, packets: int, payload_bytes: int) -> float:
        """Energy to transmit ``packets`` carrying ``payload_bytes`` in all.

        Per-packet overhead is paid ``packets`` times and the bytes once, as
        a batch.  ARQ retransmissions are priced the same way.
        """
        return packets * self.tx_per_packet + payload_bytes * self.tx_per_byte

    def rx_energy(self, packets: int, payload_bytes: int) -> float:
        """Energy to receive ``packets`` carrying ``payload_bytes`` in all."""
        return packets * self.rx_per_packet + payload_bytes * self.rx_per_byte

    def relative_saving_from_shrinking(
        self, payload_bytes: int, bytes_removed: int
    ) -> float:
        """Fraction of tx energy saved by removing bytes from one packet.

        This is the quantity behind the paper's footnote motivating Treecut:
        with realistic parameters, removing 10 bytes from a full packet saves
        only a few percent, so sending a *slightly* smaller packet is not
        worth risking an extra packet later.
        """
        if bytes_removed < 0 or bytes_removed > payload_bytes:
            raise ValueError("bytes_removed must be within [0, payload_bytes]")
        before = self.tx_cost(payload_bytes)
        after = self.tx_cost(payload_bytes - bytes_removed)
        return (before - after) / before
