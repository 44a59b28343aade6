"""Unit tests of the reliable transport state machine.

Everything here drives :class:`ReliableTransport` directly — no engine,
no protocols — to pin down the wire-level semantics: sequence numbers,
CRC rejection, retransmission backoff, dedup, reordering, partitions,
and the give-up guard.
"""

import pytest

from repro.errors import ChannelError, SimulationError
from repro.runtime.failures import NetworkFaultEvent, NetworkFaultKind
from repro.runtime.transport import (
    MAX_ATTEMPTS,
    RTO_FACTOR,
    NetworkFaultInjector,
    ReliableTransport,
    frame_checksum,
)

LAT = 1.0


def transport(events=None):
    return ReliableTransport(injector=NetworkFaultInjector(events or []))


def fault(kind, time, src=0, dst=1, delay=0.0):
    return NetworkFaultEvent(
        time=time, kind=kind, src=src, dst=dst, delay=delay
    )


class TestFaultFreePath:
    def test_single_attempt_one_latency(self):
        t = transport()
        delivery = t.transmit(0, 1, "p2p", 42, send_time=5.0, latency=LAT)
        assert delivery.attempts == 1
        assert delivery.delivery_time == 6.0
        assert t.stats.frames_sent == 1
        assert t.stats.retransmits == 0
        assert t.stats.ack_frames == 1

    def test_sequence_numbers_are_per_channel(self):
        t = transport()
        a = t.transmit(0, 1, "p2p", 1, send_time=0.0, latency=LAT)
        b = t.transmit(0, 1, "p2p", 2, send_time=1.0, latency=LAT)
        c = t.transmit(1, 0, "p2p", 3, send_time=0.0, latency=LAT)
        assert (a.seq, b.seq) == (0, 1)
        assert c.seq == 0  # the reverse channel counts independently

    def test_checksum_detects_any_single_bit_flip(self):
        crc = frame_checksum(7, 12345)
        for bit in range(31):
            assert frame_checksum(7, 12345 ^ (1 << bit)) != crc


class TestOneShotFaults:
    def test_drop_forces_one_retransmission(self):
        t = transport([fault(NetworkFaultKind.DROP, 0.0)])
        delivery = t.transmit(0, 1, "p2p", 5, send_time=0.0, latency=LAT)
        assert delivery.attempts == 2
        # First copy lost; retry fires at rto = 3 x latency.
        assert delivery.delivery_time == pytest.approx(3.0 + LAT)
        assert t.stats.dropped_frames == 1
        assert t.stats.retransmits == 1

    def test_corrupt_frame_is_crc_rejected_then_retried(self):
        t = transport([fault(NetworkFaultKind.CORRUPT, 0.0)])
        delivery = t.transmit(0, 1, "p2p", 5, send_time=0.0, latency=LAT)
        assert delivery.attempts == 2
        assert t.stats.corrupt_frames == 1

    def test_delay_fault_adds_latency(self):
        t = transport([fault(NetworkFaultKind.DELAY, 0.0, delay=0.7)])
        delivery = t.transmit(0, 1, "p2p", 5, send_time=0.0, latency=LAT)
        assert delivery.delivery_time == pytest.approx(1.7)
        assert t.stats.delayed_frames == 1

    def test_duplicate_suppressed_by_dedup(self):
        t = transport([fault(NetworkFaultKind.DUPLICATE, 0.0)])
        delivery = t.transmit(0, 1, "p2p", 5, send_time=0.0, latency=LAT)
        assert delivery.delivery_time == pytest.approx(LAT)
        assert t.stats.duplicate_frames == 1
        assert t.stats.dups_suppressed == 1

    def test_fault_is_one_shot(self):
        t = transport([fault(NetworkFaultKind.DROP, 0.0)])
        t.transmit(0, 1, "p2p", 1, send_time=0.0, latency=LAT)
        clean = t.transmit(0, 1, "p2p", 2, send_time=10.0, latency=LAT)
        assert clean.attempts == 1

    def test_fault_only_hits_its_channel(self):
        t = transport([fault(NetworkFaultKind.DROP, 0.0, src=2, dst=0)])
        delivery = t.transmit(0, 1, "p2p", 1, send_time=5.0, latency=LAT)
        assert delivery.attempts == 1

    def test_fault_not_consumed_before_its_time(self):
        t = transport([fault(NetworkFaultKind.DROP, 50.0)])
        delivery = t.transmit(0, 1, "p2p", 1, send_time=1.0, latency=LAT)
        assert delivery.attempts == 1


class TestBackoffAndGiveUp:
    def test_rto_doubles_per_retry(self):
        events = [
            fault(NetworkFaultKind.DROP, 0.0),
            fault(NetworkFaultKind.DROP, 1.0),
        ]
        t = transport(events)
        delivery = t.transmit(0, 1, "p2p", 5, send_time=0.0, latency=LAT)
        # Attempts at t=0 (lost), t=3 (lost), t=3+6=9 (arrives at 10).
        assert delivery.attempts == 3
        assert delivery.delivery_time == pytest.approx(10.0)

    def test_unhealed_partition_gives_up(self):
        t = transport([fault(NetworkFaultKind.PARTITION, 0.0)])
        with pytest.raises(ChannelError, match="gave up on seq 0"):
            t.transmit(0, 1, "p2p", 5, send_time=1.0, latency=LAT)
        assert t.stats.dropped_frames == MAX_ATTEMPTS

    def test_healed_partition_recovers(self):
        events = [
            fault(NetworkFaultKind.PARTITION, 0.0),
            fault(NetworkFaultKind.HEAL, 5.0),
        ]
        t = transport(events)
        delivery = t.transmit(0, 1, "p2p", 5, send_time=1.0, latency=LAT)
        assert delivery.attempts > 1
        assert delivery.delivery_time > 5.0

    def test_partition_blocks_both_directions(self):
        events = [
            fault(NetworkFaultKind.PARTITION, 0.0),
            fault(NetworkFaultKind.HEAL, 4.0),
        ]
        t = transport(events)
        delivery = t.transmit(1, 0, "p2p", 5, send_time=1.0, latency=LAT)
        assert delivery.attempts > 1

    def test_ack_lost_in_partition_keeps_timer_running(self):
        # Window covers the ACK's launch (arrival at t=1) but not the
        # data frame's (t=0) — only {1,0} direction is inside at t=1.
        events = [
            fault(NetworkFaultKind.PARTITION, 0.5),
            fault(NetworkFaultKind.HEAL, 2.5),
        ]
        t = transport(events)
        delivery = t.transmit(0, 1, "p2p", 5, send_time=0.0, latency=LAT)
        assert t.stats.acks_lost >= 1
        assert delivery.attempts > 1


class TestReorderBuffer:
    def test_delayed_predecessor_holds_back_successor(self):
        # delay below the RTO so the first copy (not a retransmit) wins
        t = transport([fault(NetworkFaultKind.DELAY, 0.0, delay=0.7)])
        first = t.transmit(0, 1, "p2p", 1, send_time=0.0, latency=LAT)
        second = t.transmit(0, 1, "p2p", 2, send_time=0.5, latency=LAT)
        assert first.delivery_time == pytest.approx(1.7)
        # seq 1 physically arrives at 1.5 but is released only after
        # seq 0 fills the gap.
        assert second.delivery_time == pytest.approx(first.delivery_time)

    def test_long_delay_loses_to_the_retransmission_timer(self):
        # delay beyond the RTO: the retry's intact copy arrives first
        # and the receiver releases on it.
        t = transport([fault(NetworkFaultKind.DELAY, 0.0, delay=5.0)])
        delivery = t.transmit(0, 1, "p2p", 1, send_time=0.0, latency=LAT)
        assert delivery.attempts == 2
        assert delivery.delivery_time == pytest.approx(4.0)

    def test_rebase_resets_delivery_floor(self):
        t = transport([fault(NetworkFaultKind.DELAY, 0.0, delay=50.0)])
        t.transmit(0, 1, "p2p", 1, send_time=0.0, latency=LAT)
        t.rebase((0, 1, "p2p"), restart_time=2.0)
        delivery = t.transmit(0, 1, "p2p", 2, send_time=2.0, latency=LAT)
        assert delivery.delivery_time == pytest.approx(3.0)

    def test_seq_numbers_not_reused_after_rebase(self):
        t = transport()
        a = t.transmit(0, 1, "p2p", 1, send_time=0.0, latency=LAT)
        t.rebase((0, 1, "p2p"), restart_time=1.0)
        b = t.transmit(0, 1, "p2p", 2, send_time=1.0, latency=LAT)
        assert b.seq > a.seq


class TestInjectorAndConstants:
    def test_orphan_heal_rejected(self):
        with pytest.raises(SimulationError, match="closes no open"):
            NetworkFaultInjector([fault(NetworkFaultKind.HEAL, 1.0)])

    def test_has_faults(self):
        assert not NetworkFaultInjector([]).has_faults
        assert NetworkFaultInjector(
            [fault(NetworkFaultKind.DROP, 1.0)]
        ).has_faults

    def test_first_timer_outlasts_a_round_trip(self):
        # The fault-free fast path relies on it: the first ACK always
        # lands before the first retransmission fires.
        assert RTO_FACTOR > 2.0
