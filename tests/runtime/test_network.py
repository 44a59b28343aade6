"""FIFO network and rollback-cursor tests."""

import pytest

from repro.errors import ChannelError
from repro.runtime.network import Network, _mix


class TestSendReceive:
    def test_send_then_consume(self):
        net = Network(2)
        message = net.send(0, 1, 42, send_time=1.0)
        assert net.peek(0, 1) is message
        assert net.consume(0, 1).value == 42
        assert net.peek(0, 1) is None

    def test_consume_empty_raises(self):
        net = Network(2)
        with pytest.raises(ChannelError, match="empty"):
            net.consume(0, 1)

    def test_rank_validation(self):
        net = Network(2)
        with pytest.raises(ChannelError, match="out of range"):
            net.send(0, 5, 1, send_time=0.0)

    def test_lanes_are_separate(self):
        net = Network(2)
        net.send(0, 1, 7, send_time=0.0, lane="coll")
        assert net.peek(0, 1, "p2p") is None
        assert net.peek(0, 1, "coll").value == 7

    def test_message_ids_unique(self):
        net = Network(3)
        ids = {net.send(0, 1, i, send_time=0.0).message_id for i in range(10)}
        assert len(ids) == 10


class TestFifoOrdering:
    def test_arrivals_non_decreasing_per_channel(self):
        net = Network(2, base_latency=1.0, jitter=0.0)
        first = net.send(0, 1, 1, send_time=5.0)
        second = net.send(0, 1, 2, send_time=5.0)
        assert second.arrival_time >= first.arrival_time

    def test_queue_order_is_send_order(self):
        net = Network(2)
        net.send(0, 1, 10, send_time=0.0)
        net.send(0, 1, 20, send_time=0.1)
        assert net.consume(0, 1).value == 10
        assert net.consume(0, 1).value == 20

    def test_latency_deterministic_per_pair(self):
        net = Network(4, seed=7)
        assert net.latency(0, 1) == net.latency(0, 1)

    #: ``_mix`` of each argument tuple, taken before the three mixers
    #: shared one helper: a changed start value, multiplier or shift
    #: fails here.
    GOLDEN = (
        ((), 1779033703),
        ((1, 2), 286757762),
        ((-5, 2**40), 1523293844),
        ((7,), 2080959096),
        ((0, 3, 1, 4), 1756314661),
    )

    @pytest.mark.parametrize("args,expected", GOLDEN)
    def test_golden_mixer_values(self, args, expected):
        assert _mix(*args) == expected

    def test_golden_latencies(self):
        net = Network(8, jitter=0.5, seed=7)
        assert [net.latency(0, 1), net.latency(3, 2)] == [
            0.5968454080153468, 0.7604546846172096,
        ]

    def test_latency_varies_across_pairs(self):
        net = Network(8, jitter=0.5, seed=7)
        latencies = {net.latency(i, (i + 1) % 8) for i in range(8)}
        assert len(latencies) > 1

    def test_arrival_includes_latency(self):
        net = Network(2, base_latency=2.0, jitter=0.0)
        message = net.send(0, 1, 1, send_time=3.0)
        assert message.arrival_time == pytest.approx(5.0)


class TestRollback:
    def test_full_reset_with_zero_cursors(self):
        net = Network(2)
        net.send(0, 1, 1, send_time=0.0)
        net.send(0, 1, 2, send_time=0.1)
        net.rollback({}, restart_time=10.0)
        assert net.peek(0, 1) is None
        assert all(c.sent == 0 for c in net._channels.values())

    def test_in_flight_preserved(self):
        net = Network(2, base_latency=1.0, jitter=0.0)
        net.send(0, 1, 1, send_time=0.0)
        net.send(0, 1, 2, send_time=0.5)
        net.consume(0, 1)
        # cut: sender had sent both, receiver had delivered one
        in_flight = net.rollback(
            {(0, 1, "p2p"): (2, 1)}, restart_time=20.0
        )
        assert [m.value for m in in_flight] == [2]
        assert net.peek(0, 1).value == 2
        assert net.peek(0, 1).arrival_time >= 20.0

    def test_post_cut_sends_truncated(self):
        net = Network(2)
        net.send(0, 1, 1, send_time=0.0)
        net.send(0, 1, 2, send_time=0.1)
        net.send(0, 1, 3, send_time=0.2)
        net.rollback({(0, 1, "p2p"): (1, 0)}, restart_time=5.0)
        assert net.consume(0, 1).value == 1
        assert net.peek(0, 1) is None

    def test_corrupt_cursors_rejected(self):
        net = Network(2)
        net.send(0, 1, 1, send_time=0.0)
        with pytest.raises(ChannelError, match="corrupt"):
            net.rollback({(0, 1, "p2p"): (5, 0)}, restart_time=1.0)

    def test_orphan_cursors_clamped_not_rejected(self):
        """delivered > sent marks an inconsistent (orphan) cut; the
        network clamps so broken recoveries can be simulated."""
        net = Network(2)
        net.send(0, 1, 1, send_time=0.0)
        net.rollback({(0, 1, "p2p"): (1, 2)}, restart_time=1.0)
        assert net.peek(0, 1) is None  # everything counted delivered

    def test_replay_after_rollback_appends_cleanly(self):
        net = Network(2)
        net.send(0, 1, 1, send_time=0.0)
        net.consume(0, 1)
        net.send(0, 1, 2, send_time=1.0)
        net.rollback({(0, 1, "p2p"): (1, 1)}, restart_time=5.0)
        net.send(0, 1, 22, send_time=6.0)  # replayed second send
        assert net.consume(0, 1).value == 22

    def test_cursors_for_covers_both_directions(self):
        net = Network(3)
        net.send(0, 1, 1, send_time=0.0)
        net.send(2, 0, 9, send_time=0.0)
        cursors = net.cursors_for(0)
        assert (0, 1, "p2p") in cursors
        assert (2, 0, "p2p") in cursors
        assert (1, 2, "p2p") not in cursors
