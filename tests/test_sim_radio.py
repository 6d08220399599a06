"""Packetization and channel accounting tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry
from repro.sim.energy import EnergyModel
from repro.sim.radio import ArqConfig, Channel, PacketFormat
from repro.sim.stats import TransmissionStats


def make_channel(max_packet=48, nodes=(1, 2, 3)):
    stats = TransmissionStats()
    return Channel(PacketFormat(max_packet), stats, nodes), stats


def loads(stats):
    """node id -> per-node totals row of the store."""
    return {load.node_id: load for load in stats.per_node_loads({})}


class TestPacketFormat:
    def test_zero_bytes_zero_packets(self):
        assert PacketFormat(48).packets_for(0) == 0

    def test_exact_fit(self):
        assert PacketFormat(48).packets_for(48) == 1

    def test_one_byte_over(self):
        assert PacketFormat(48).packets_for(49) == 2

    def test_paper_sizes(self):
        fmt = PacketFormat(48)
        assert fmt.packets_for(30) == 1  # a D_max payload fits one packet
        assert PacketFormat(124).packets_for(124) == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            PacketFormat(0)
        with pytest.raises(ValueError):
            PacketFormat(48).packets_for(-1)

    def test_bytes_for_packets(self):
        assert PacketFormat(48).bytes_for_packets(3) == 144

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=200))
    def test_packets_cover_payload(self, payload, max_packet):
        fmt = PacketFormat(max_packet)
        packets = fmt.packets_for(payload)
        assert packets * max_packet >= payload
        if packets:
            assert (packets - 1) * max_packet < payload

    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=5_000))
    def test_packets_monotone_and_subadditive(self, a, b):
        fmt = PacketFormat(48)
        assert fmt.packets_for(a + b) >= fmt.packets_for(max(a, b))
        # Merging payloads never costs more packets than sending separately:
        assert fmt.packets_for(a + b) <= fmt.packets_for(a) + fmt.packets_for(b) or (
            a == 0 or b == 0
        )


class TestChannel:
    def test_unicast_charges_both_ends(self):
        channel, stats = make_channel()
        packets = channel.unicast(1, 2, 100, "phase-x")
        assert packets == 3
        by_node = loads(stats)
        assert by_node[1].tx_packets == 3 and by_node[1].tx_bytes == 100
        assert by_node[2].rx_packets == 3 and by_node[2].rx_bytes == 100
        assert 3 not in by_node
        assert stats.total_tx_packets() == 3
        assert stats.node_tx_packets(1, ["phase-x"]) == 3
        model = EnergyModel()
        assert stats.node_energy(1, model) == model.tx_energy(3, 100)
        assert stats.node_energy(2, model) == model.rx_energy(3, 100)
        assert stats.node_energy(3, model) == 0.0

    def test_unicast_empty_payload_free(self):
        channel, stats = make_channel()
        assert channel.unicast(1, 2, 0, "phase") == 0
        assert stats.total_tx_packets() == 0
        assert loads(stats) == {}

    def test_broadcast_single_tx_many_rx(self):
        channel, stats = make_channel()
        packets = channel.broadcast(1, [2, 3], 50, "flood")
        assert packets == 2
        by_node = loads(stats)
        assert by_node[1].tx_packets == 2
        assert by_node[2].rx_packets == 2 and by_node[3].rx_packets == 2
        assert stats.total_tx_packets() == 2  # broadcast counted once

    def test_unknown_node_rejected(self):
        channel, _ = make_channel()
        with pytest.raises(SimulationError):
            channel.unicast(1, 99, 10, "phase")

    def test_latency_proportional_to_packets(self):
        channel, _ = make_channel()
        assert channel.latency_for(0) == 0.0
        assert channel.latency_for(49) == pytest.approx(2 * channel.hop_latency_s)

    def test_store_records_every_phase_and_receiver(self):
        channel, stats = make_channel()
        channel.unicast(1, 2, 10, "a")
        channel.broadcast(2, [1, 3], 20, "b")
        assert stats.tx_packets_by_phase() == {"a": 1, "b": 1}
        assert stats.node_tx_packets(1, ["a"]) == 1
        assert stats.node_tx_packets(2, ["b"]) == 1
        assert stats.node_rx_packets(2, ["a"]) == 1
        # Both listeners of the broadcast received it in its phase.
        assert stats.node_rx_packets(1, ["b"]) == 1
        assert stats.node_rx_packets(3, ["b"]) == 1
        assert stats.node_rx_packets(2, ["b"]) == 0


def make_lossy_channel(p_loss, max_packet=48, nodes=(1, 2, 3), seed=0, arq=None,
                       telemetry=None):
    """A channel where every link loses each packet with probability p_loss."""
    stats = TransmissionStats()
    channel = Channel(
        PacketFormat(max_packet), stats, nodes,
        loss_probability=lambda a, b: p_loss, arq=arq, arq_seed=seed,
        telemetry=telemetry,
    )
    return channel, stats


class TestEmptyBroadcast:
    def test_no_receivers_is_a_noop(self):
        channel, stats = make_channel()
        assert channel.broadcast(1, [], 100, "flood") == 0
        assert stats.node_tx_packets(1) == 0
        assert stats.node_energy(1, EnergyModel()) == 0.0
        assert stats.total_tx_packets() == 0
        assert loads(stats) == {}
        assert channel.last_send_latency_s == 0.0

    def test_no_receivers_noop_even_under_loss(self):
        channel, stats = make_lossy_channel(0.5)
        assert channel.broadcast(1, [], 100, "flood") == 0
        assert stats.total_tx_packets() == 0
        assert stats.total_retx_packets() == 0


class TestArqConfig:
    def test_defaults_from_constants(self):
        from repro import constants

        arq = ArqConfig()
        assert arq.max_retries == constants.DEFAULT_ARQ_MAX_RETRIES
        assert arq.ack_timeout_s == constants.DEFAULT_ARQ_ACK_TIMEOUT_S

    def test_validation(self):
        with pytest.raises(ValueError):
            ArqConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ArqConfig(ack_timeout_s=-0.1)
        with pytest.raises(ValueError):
            ArqConfig(backoff_factor=0.5)

    def test_backoff_delay_is_exponential(self):
        arq = ArqConfig(ack_timeout_s=0.01, backoff_factor=2.0)
        assert arq.backoff_delay_s(0) == 0.0
        assert arq.backoff_delay_s(1) == pytest.approx(0.01)
        assert arq.backoff_delay_s(3) == pytest.approx(0.01 + 0.02 + 0.04)


class TestLossyChannel:
    def test_lossless_channel_has_no_retx(self):
        channel, stats = make_channel()
        channel.unicast(1, 2, 100, "phase")
        channel.broadcast(1, [2, 3], 100, "phase")
        assert stats.total_retx_packets() == 0
        assert all(load.retx_packets == 0 for load in loads(stats).values())
        assert all(load.retx_bytes == 0 for load in loads(stats).values())

    def test_lossless_channel_draws_no_randomness(self):
        channel, _ = make_channel()
        before = channel._rng.getstate()
        channel.unicast(1, 2, 100, "phase")
        channel.broadcast(1, [2, 3], 100, "phase")
        assert channel._rng.getstate() == before

    def test_zero_probability_link_still_consumes_draws(self):
        # RNG stream alignment across loss rates requires one draw per
        # packet whenever the loss layer is on, even for perfect links.
        channel, _ = make_lossy_channel(0.0)
        before = channel._rng.getstate()
        channel.unicast(1, 2, 100, "phase")  # 3 packets -> 3 draws
        assert channel._rng.getstate() != before

    def test_retx_charged_and_recorded(self):
        channel, stats = make_lossy_channel(0.6, seed=1)
        channel.unicast(1, 2, 480, "phase")  # 10 packets at p=0.6
        retx = stats.total_retx_packets()
        assert retx > 0
        by_node = loads(stats)
        assert by_node[1].retx_packets == retx
        assert by_node[1].retx_bytes == 48 * retx  # every fragment is full
        assert by_node[2].rx_packets == 10  # receiver charged once per packet
        assert stats.total_tx_packets() == 10  # first transmissions untouched
        # Retries are priced like transmissions, on the sender only.
        model = EnergyModel()
        assert stats.node_energy(1, model) == model.tx_energy(10 + retx, 480 + 48 * retx)
        assert stats.node_energy(2, model) == model.rx_energy(10, 480)

    def test_retries_bounded_by_arq_policy(self):
        arq = ArqConfig(max_retries=2)
        channel, stats = make_lossy_channel(0.99, seed=0, arq=arq)
        channel.unicast(1, 2, 48 * 5, "phase")
        assert stats.total_retx_packets() <= 2 * 5

    def test_deterministic_under_seed_and_reset(self):
        channel, stats = make_lossy_channel(0.3, seed=42)
        channel.unicast(1, 2, 480, "phase")
        first = stats.total_retx_packets()
        channel.reset_arq()
        stats2 = TransmissionStats()
        channel.stats = stats2
        channel.unicast(1, 2, 480, "phase")
        assert stats2.total_retx_packets() == first

    def test_retries_monotone_in_loss_rate(self):
        counts = []
        for p_loss in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8):
            channel, stats = make_lossy_channel(p_loss, seed=7)
            for _ in range(20):
                channel.unicast(1, 2, 100, "phase")
            counts.append(stats.total_retx_packets())
        assert counts == sorted(counts)
        assert counts[-1] > 0

    def test_broadcast_repeats_for_worst_listener(self):
        def per_link(a, b):
            return 0.0 if b == 2 else 0.7

        stats = TransmissionStats()
        channel = Channel(PacketFormat(48), stats, (1, 2, 3),
                          loss_probability=per_link, arq_seed=3)
        channel.broadcast(1, [2, 3], 480, "flood")
        assert stats.total_retx_packets() > 0
        # Listeners pay one receive per packet, not per retry.
        assert stats.node_rx_packets(2) == 10 and stats.node_rx_packets(3) == 10

    def test_last_send_latency_includes_arq_delay(self):
        channel, _ = make_lossy_channel(0.8, seed=0)
        packets = channel.unicast(1, 2, 480, "phase")
        serialisation = packets * channel.hop_latency_s
        assert channel.last_send_latency_s > serialisation
        assert channel.total_arq_delay_s == pytest.approx(
            channel.last_send_latency_s - serialisation
        )

    def test_last_send_latency_matches_latency_for_when_lossless(self):
        channel, _ = make_channel()
        channel.unicast(1, 2, 100, "phase")
        assert channel.last_send_latency_s == channel.latency_for(100)
        channel.unicast(1, 2, 0, "phase")
        assert channel.last_send_latency_s == 0.0

    def test_tracer_sees_link_retx_events(self):
        from repro.sim.trace import ListTracer

        tracer = ListTracer()
        channel, _ = make_lossy_channel(0.7, seed=5, telemetry=Telemetry(tracer=tracer))
        channel.unicast(1, 2, 480, "phase")
        events = tracer.filter(kind="link-retx")
        assert events
        assert events[0].node_id == 1
        assert events[0].detail["retries"] > 0

    def test_fragment_sizes_cover_payload(self):
        fmt = PacketFormat(48)
        assert fmt.fragment_sizes(0) == []
        assert fmt.fragment_sizes(48) == [48]
        assert fmt.fragment_sizes(100) == [48, 48, 4]
        assert sum(fmt.fragment_sizes(1234)) == 1234

    @given(st.floats(min_value=0.0, max_value=0.95), st.integers(0, 2**32))
    def test_draw_retries_within_bounds(self, p_loss, seed):
        channel, _ = make_lossy_channel(p_loss, seed=seed)
        retries = channel._draw_retries(p_loss)
        assert 0 <= retries <= channel.arq.max_retries


class TestDeadLinks:
    """§IV-F: sends over a severed link spend the ARQ budget, deliver nothing."""

    def make_dead_channel(self, dead=(3,), loss=None, seed=5, telemetry=None):
        stats = TransmissionStats()
        channel = Channel(
            PacketFormat(48), stats, (1, 2, 3),
            loss_probability=loss, arq_seed=seed,
            link_up=lambda a, b: b not in dead,
            telemetry=telemetry,
        )
        return channel, stats

    def test_unicast_over_dead_link_charges_sender_only(self):
        channel, stats = self.make_dead_channel()
        packets = channel.unicast(1, 3, 480, "phase")
        assert packets == 10
        assert channel.last_send_delivered is False
        # Sender pays the transmission plus the full retry budget…
        assert stats.node_tx_packets(1) == 10
        assert stats.total_retx_packets() == channel.arq.max_retries * 10
        assert stats.node_retx_packets(1) == channel.arq.max_retries * 10
        # …the receiver hears nothing and pays nothing.
        assert stats.node_rx_packets(3) == 0
        assert stats.node_energy(3, EnergyModel()) == 0.0

    def test_live_link_unaffected(self):
        channel, stats = self.make_dead_channel()
        channel.unicast(1, 2, 480, "phase")
        assert channel.last_send_delivered is True
        assert stats.node_rx_packets(2) == 10

    def test_dead_link_consumes_no_arq_draws(self):
        # The failed send's retries are a fixed budget, not sampled — so a
        # dead link must not perturb the seeded draw sequence of later sends.
        flaky = lambda a, b: 0.3
        channel_a, stats_a = self.make_dead_channel(loss=flaky)
        channel_a.unicast(1, 2, 480, "phase")
        clean_retries = stats_a.total_retx_packets()
        channel_b, stats_b = self.make_dead_channel(loss=flaky)
        channel_b.unicast(1, 3, 480, "phase")  # dead; no draws
        dead_retries = stats_b.total_retx_packets()
        channel_b.unicast(1, 2, 480, "phase")
        assert stats_b.total_retx_packets() - dead_retries == clean_retries

    def test_broadcast_partial_reach(self):
        channel, stats = self.make_dead_channel()
        channel.broadcast(1, [2, 3], 480, "phase")
        assert channel.last_broadcast_reached == (2,)
        assert channel.last_send_delivered is False
        assert stats.node_rx_packets(2) == 10
        assert stats.node_rx_packets(3) == 0
        # The unreachable listener never ACKs: full retry budget.
        assert stats.total_retx_packets() == channel.arq.max_retries * 10

    def test_broadcast_all_reached(self):
        channel, stats = self.make_dead_channel(dead=())
        channel.broadcast(1, [2, 3], 480, "phase")
        assert channel.last_broadcast_reached == (2, 3)
        assert channel.last_send_delivered is True
        assert stats.total_retx_packets() == 0

    def test_dead_link_emits_trace_event(self):
        from repro.sim.trace import LINK_DEAD, ListTracer

        tracer = ListTracer()
        channel, _ = self.make_dead_channel(telemetry=Telemetry(tracer=tracer))
        channel.unicast(1, 3, 480, "phase")
        events = tracer.filter(kind=LINK_DEAD)
        assert len(events) == 1
        assert events[0].node_id == 1
        assert events[0].detail["receiver"] == 3
