"""Energy model tests, including the paper's §IV-B footnote property."""

import pytest

from repro.sim.energy import EnergyModel


def test_tx_cost_is_affine():
    model = EnergyModel(tx_per_packet=100.0, tx_per_byte=2.0)
    assert model.tx_cost(0) == 100.0
    assert model.tx_cost(10) == 120.0


def test_rx_cost_is_affine():
    model = EnergyModel(rx_per_packet=50.0, rx_per_byte=1.0)
    assert model.rx_cost(0) == 50.0
    assert model.rx_cost(48) == 98.0


def test_negative_payload_rejected():
    model = EnergyModel()
    with pytest.raises(ValueError):
        model.tx_cost(-1)
    with pytest.raises(ValueError):
        model.rx_cost(-1)


def test_paper_footnote_small_shrink_small_saving():
    """§IV-B footnote 1: removing ~10 bytes from a packet saves ~5%.

    This is the quantitative motivation for Treecut: trimming a tuple to its
    join attributes barely helps while the packet count stays the same.
    """
    model = EnergyModel()  # MicaZ-like defaults
    saving = model.relative_saving_from_shrinking(48, 10)
    assert 0.02 <= saving <= 0.10


def test_shrink_bounds_validated():
    model = EnergyModel()
    with pytest.raises(ValueError):
        model.relative_saving_from_shrinking(20, 30)
    with pytest.raises(ValueError):
        model.relative_saving_from_shrinking(20, -1)


def test_per_packet_overhead_dominates_default_model():
    """The default parameters must make packet count the primary cost."""
    model = EnergyModel()
    one_full = model.tx_cost(48)
    two_small = 2 * model.tx_cost(24)
    assert two_small > one_full


def test_batch_energy_charges_overhead_per_packet_and_bytes_once():
    model = EnergyModel(
        tx_per_packet=100.0, tx_per_byte=2.0, rx_per_packet=50.0, rx_per_byte=1.0
    )
    assert model.tx_energy(2, 96) == 2 * 100.0 + 96 * 2.0
    assert model.rx_energy(2, 96) == 2 * 50.0 + 96 * 1.0
    assert model.tx_energy(0, 0) == model.rx_energy(0, 0) == 0.0
    # One packet in a batch costs what a single packet costs.
    assert model.tx_energy(1, 40) == model.tx_cost(40)
    assert model.rx_energy(1, 40) == model.rx_cost(40)
