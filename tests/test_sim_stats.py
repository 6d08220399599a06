"""Transmission statistics collector tests."""

import pytest

from repro.sim.energy import EnergyModel
from repro.sim.stats import NodeLoad, TransmissionStats


def test_totals_across_phases():
    stats = TransmissionStats()
    stats.record_tx(1, "collect", 3, 100)
    stats.record_tx(2, "collect", 2, 60)
    stats.record_tx(1, "filter", 1, 20)
    assert stats.total_tx_packets() == 6
    assert stats.total_tx_packets(["collect"]) == 5
    assert stats.total_tx_bytes(["filter"]) == 20
    assert stats.total_tx_bytes() == 180


def test_per_phase_breakdown():
    stats = TransmissionStats()
    stats.record_tx(1, "a", 1, 10)
    stats.record_tx(2, "a", 2, 20)
    stats.record_tx(2, "b", 4, 40)
    assert stats.tx_packets_by_phase() == {"a": 3, "b": 4}


def test_node_level_queries():
    stats = TransmissionStats()
    stats.record_tx(7, "a", 2, 10)
    stats.record_tx(7, "b", 3, 10)
    stats.record_rx(7, "a", 1, 5)
    assert stats.node_tx_packets(7) == 5
    assert stats.node_tx_packets(7, ["a"]) == 2
    assert stats.node_rx_packets(7) == 1
    assert stats.node_tx_packets(99) == 0


def test_max_node_tx():
    stats = TransmissionStats()
    stats.record_tx(1, "a", 2, 10)
    stats.record_tx(2, "a", 9, 10)
    assert stats.max_node_tx_packets() == 9
    assert stats.max_node_tx_packets(["missing-phase"]) == 0


def test_per_node_loads_join_with_descendants():
    stats = TransmissionStats()
    stats.record_tx(1, "a", 2, 12)
    stats.record_rx(2, "a", 1, 6)
    loads = stats.per_node_loads({1: 10, 2: 0, 3: 5})
    by_id = {load.node_id: load for load in loads}
    assert by_id[1].descendants == 10 and by_id[1].tx_packets == 2
    assert by_id[2].rx_packets == 1
    assert by_id[3].tx_packets == 0  # present via descendants only
    assert by_id[1].total_packets == 2


def test_negative_counts_rejected():
    stats = TransmissionStats()
    with pytest.raises(ValueError):
        stats.record_tx(1, "a", -1, 0)
    with pytest.raises(ValueError):
        stats.record_rx(1, "a", 0, -1)


def test_per_node_loads_sum_matches_totals():
    stats = TransmissionStats()
    for node, packets in ((1, 4), (2, 5), (3, 6)):
        stats.record_tx(node, "p", packets, packets * 10)
    loads = stats.per_node_loads({})
    assert sum(load.tx_packets for load in loads) == stats.total_tx_packets()


def test_retx_dimension_separate_from_tx():
    stats = TransmissionStats()
    stats.record_tx(1, "collection", 5, 100)
    stats.record_retx(1, "collection", 2, 40)
    stats.record_retx(2, "final", 3, 60)
    assert stats.total_tx_packets() == 5  # first transmissions untouched
    assert stats.total_retx_packets() == 5
    assert stats.total_retx_packets(["collection"]) == 2
    assert stats.retx_packets_by_phase() == {"collection": 2, "final": 3}
    assert stats.node_retx_packets(1) == 2
    assert stats.node_retx_packets(99) == 0


def test_record_retx_rejects_negative():
    stats = TransmissionStats()
    with pytest.raises(ValueError):
        stats.record_retx(1, "p", -1, 0)


def test_per_node_loads_include_retx():
    stats = TransmissionStats()
    stats.record_tx(1, "p", 4, 40)
    stats.record_retx(1, "p", 2, 20)
    stats.record_retx(7, "p", 1, 10)  # a node with only retransmissions
    loads = {load.node_id: load for load in stats.per_node_loads({})}
    assert loads[1].retx_packets == 2
    assert loads[1].total_packets == 4  # retx excluded from the paper metric
    assert loads[7].retx_packets == 1


def test_energy_priced_from_counts():
    model = EnergyModel(
        tx_per_packet=100.0, tx_per_byte=2.0, rx_per_packet=50.0, rx_per_byte=1.0
    )
    stats = TransmissionStats()
    stats.record_tx(1, "a", 2, 10)
    stats.record_tx(1, "b", 1, 5)
    stats.record_retx(1, "a", 1, 4)
    stats.record_rx(2, "a", 2, 10)
    # Retransmissions pay the transmit prices; receptions the receive ones.
    assert stats.node_energy(1, model) == 4 * 100.0 + 19 * 2.0
    assert stats.node_energy(2, model) == 2 * 50.0 + 10 * 1.0
    assert stats.node_energy(3, model) == 0.0
    spent = stats.node_energy(1, model) + stats.node_energy(2, model)
    assert stats.total_energy(model) == spent
    assert TransmissionStats().total_energy(model) == 0.0


def test_node_counts_restricted_to_phases():
    stats = TransmissionStats()
    stats.record_rx(4, "a", 2, 10)
    stats.record_rx(4, "b", 3, 10)
    assert stats.node_rx_packets(4) == 5
    assert stats.node_rx_packets(4, ["b"]) == 3
    assert stats.node_rx_packets(4, ["missing-phase"]) == 0
    loads = {load.node_id: load for load in stats.per_node_loads({})}
    assert loads[4].rx_bytes == 20
