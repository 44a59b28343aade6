"""Reliable FIFO message channels with rollback support.

The system model (§2) assumes asynchronous, reliable, FIFO message
passing. Each directed channel keeps an **append-only log** of every
message ever sent on it plus two cursors: ``sent`` (log length) and
``delivered``. The undelivered suffix is the channel's current queue.

Because a channel has a single writer, rollback is exact and cheap:
checkpoints record the cursor pair per channel, and
:meth:`Network.rollback` truncates each log to the sender's cut cursor
and rewinds the delivery cursor to the receiver's — the surviving
middle segment is precisely the messages *in flight across the cut*
(Chandy-Lamport's "channel state"), which replays see again.

Latency model: ``base_latency`` plus a small deterministic per-pair
offset (derived from the seed), with FIFO delivery enforced by making
arrival times non-decreasing per channel.

Beneath the send/consume API sits a :class:`~repro.runtime.transport.
ReliableTransport`: every send is pushed through a (possibly faulty)
medium — sequence numbers, CRC, dedup/reorder, cumulative ACKs,
retransmission with exponential backoff — and the resulting delivery
time becomes the message's arrival time. With no injected network
faults the transport is a pass-through (one attempt, immediate ACK)
and behaviour is byte-identical to the bare FIFO model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ChannelError
from repro.lang.builtins import MIX_MASK, mixer
from repro.runtime.transport import NetworkFaultInjector, ReliableTransport

_mix = mixer(0x6A09E667, 0x85EBCA6B, 13)


class Message(NamedTuple):
    """One application message.

    ``channel`` is ``(src, dst, lane)``; the lane separates point-to-
    point traffic (``"p2p"``) from collective traffic (``"coll"``) so a
    broadcast cannot be picked up by a plain receive.
    """

    message_id: int
    src: int
    dst: int
    lane: str
    value: int
    send_time: float
    arrival_time: float
    piggyback: dict[str, int]

    @property
    def channel(self) -> tuple[int, int, str]:
        """The (src, dst, lane) channel key."""
        return (self.src, self.dst, self.lane)


@dataclass
class _Channel:
    log: list[Message] = field(default_factory=list)
    delivered: int = 0
    last_arrival: float = 0.0
    # Replay cursor for log-based single-process recovery: while
    # `replayed < len(log)`, sends on this channel are duplicates of
    # already-logged messages and are suppressed (deduplicated).
    replayed: int | None = None

    @property
    def sent(self) -> int:
        return len(self.log)

    def queue_head(self) -> Message | None:
        if self.delivered < len(self.log):
            return self.log[self.delivered]
        return None


class Network:
    """All directed channels of an ``n``-process system."""

    def __init__(
        self,
        n_processes: int,
        base_latency: float = 0.5,
        jitter: float = 0.05,
        seed: int = 0,
        fault_injector: NetworkFaultInjector | None = None,
        observer=None,
    ) -> None:
        if n_processes < 1:
            raise ChannelError(f"need at least one process, got {n_processes}")
        if base_latency < 0 or jitter < 0:
            raise ChannelError("latencies must be non-negative")
        self.n_processes = n_processes
        self.base_latency = base_latency
        self.jitter = jitter
        self.seed = seed
        self.transport = ReliableTransport(
            injector=fault_injector, observer=observer
        )
        self._channels: dict[tuple[int, int, str], _Channel] = {}
        # latency() is a pure function of (seed, src, dst); memoise it so
        # the per-send cost is one dict hit instead of a hash mix.
        self._latency_cache: dict[tuple[int, int], float] = {}
        # Per-rank (key, channel) pairs (creation order), so checkpoint
        # cursor snapshots touch only a rank's own channels instead of
        # scanning every channel in the system.
        self._rank_channels: dict[int, list[tuple[tuple, _Channel]]] = {}
        self._ids = itertools.count(1)
        # Arrival notification hook: called with each Message the moment
        # it is appended to a channel log. The engine's indexed scheduler
        # uses it to wake blocked receivers instead of polling channels.
        self.on_enqueue = None

    # -- helpers ---------------------------------------------------------------

    def _channel(self, key: tuple[int, int, str]) -> _Channel:
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = _Channel()
            src, dst, _ = key
            self._rank_channels.setdefault(src, []).append((key, channel))
            if dst != src:
                self._rank_channels.setdefault(dst, []).append((key, channel))
        return channel

    def latency(self, src: int, dst: int) -> float:
        """Deterministic one-way latency for the (src, dst) pair."""
        noise = _mix(self.seed, src, dst) / MIX_MASK  # in [0, 1]
        return self.base_latency + self.jitter * noise

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_processes:
            raise ChannelError(
                f"rank {rank} out of range [0, {self.n_processes})"
            )

    # -- sending / receiving -------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        value: int,
        send_time: float,
        lane: str = "p2p",
        piggyback: dict[str, int] | None = None,
    ) -> Message:
        """Append a message to the (src, dst, lane) channel."""
        n = self.n_processes
        if not (0 <= src < n and 0 <= dst < n):
            self._check_rank(src)
            self._check_rank(dst)
        channel = self._channel((src, dst, lane))
        if channel.replayed is not None and channel.replayed < len(channel.log):
            # A recovering sender re-executing a logged send: suppress
            # the duplicate. Deterministic replay must reproduce the
            # original payload; a mismatch means non-deterministic
            # replay, which log-based recovery cannot tolerate.
            original = channel.log[channel.replayed]
            if original.value != value:
                raise ChannelError(
                    f"non-deterministic replay: "
                    f"resent {value!r}, logged {original.value!r}",
                    src=src, dst=dst, lane=lane,
                )
            channel.replayed += 1
            if channel.replayed >= len(channel.log):
                channel.replayed = None
            return original
        latency = self._latency_cache.get((src, dst))
        if latency is None:
            latency = self._latency_cache[(src, dst)] = self.latency(src, dst)
        delivery = self.transport.transmit(
            src, dst, lane, value, send_time, latency
        )
        arrival = max(delivery.delivery_time, channel.last_arrival)
        channel.last_arrival = arrival
        # tuple.__new__ skips the generated __new__'s argument binding:
        # one message per application send.
        message = tuple.__new__(Message, (
            next(self._ids), src, dst, lane, value, send_time, arrival,
            dict(piggyback) if piggyback else {},
        ))
        channel.log.append(message)
        if self.on_enqueue is not None:
            self.on_enqueue(message)
        return message

    def peek(self, src: int, dst: int, lane: str = "p2p") -> Message | None:
        """The next undelivered message on the channel, if any.

        Read-only: unlike the writer paths it never materialises a
        channel, so polling an untouched channel allocates nothing.
        """
        channel = self._channels.get((src, dst, lane))
        return None if channel is None else channel.queue_head()

    def consume(self, src: int, dst: int, lane: str = "p2p") -> Message:
        """Deliver (pop) the next message on the channel."""
        channel = self._channel((src, dst, lane))
        head = channel.queue_head()
        if head is None:
            raise ChannelError(
                "channel is empty", src=src, dst=dst, lane=lane
            )
        channel.delivered += 1
        return head

    def pop(self, src: int, dst: int, lane: str = "p2p") -> Message | None:
        """``peek`` followed by ``consume``, fused into one lookup.

        Returns the delivered head, or ``None`` when the channel is
        absent or drained (in which case nothing is consumed). Like
        ``peek`` it never materialises a channel.
        """
        channel = self._channels.get((src, dst, lane))
        if channel is None:
            return None
        head = channel.queue_head()
        if head is not None:
            channel.delivered += 1
        return head

    # -- rollback support ------------------------------------------------------------

    def cursors_for(self, rank: int) -> dict[tuple[int, int, str], tuple[int, int]]:
        """Snapshot of (sent, delivered) cursors on *rank*'s channels.

        Outgoing channels contribute their ``sent`` cursor, incoming
        channels their ``delivered`` cursor; both are stored so a cut
        assembled from per-process checkpoints can rebuild every
        channel.
        """
        return {
            key: (len(channel.log), channel.delivered)
            for key, channel in self._rank_channels.get(rank, ())
        }

    def rollback(
        self,
        cut_cursors: dict[tuple[int, int, str], tuple[int, int]],
        restart_time: float,
    ) -> list[Message]:
        """Rewind every channel to the cut described by *cut_cursors*.

        *cut_cursors* maps channel key to ``(sent_at_cut,
        delivered_at_cut)`` where the sent cursor comes from the
        **sender's** checkpoint and the delivered cursor from the
        **receiver's**. Channels absent from the map are reset to
        empty. Messages in flight across the cut stay queued, with
        arrival times re-based at *restart_time*. Returns the in-flight
        messages (the recovered "channel state").
        """
        in_flight: list[Message] = []
        for key, channel in self._channels.items():
            sent, delivered = cut_cursors.get(key, (0, 0))
            if sent > channel.sent:
                raise ChannelError(
                    f"corrupt cut cursors: "
                    f"({sent}, {delivered}) vs log length {channel.sent}",
                    src=key[0], dst=key[1], lane=key[2],
                )
            # delivered > sent happens only for *inconsistent* cuts (the
            # receiver's checkpoint saw an orphan message the sender's
            # checkpoint has not sent). Restoring such a cut is already
            # wrong; clamp so the broken recovery can be simulated and
            # observed rather than crash the engine.
            delivered = min(delivered, sent)
            del channel.log[sent:]
            channel.delivered = min(delivered, channel.sent)
            channel.last_arrival = restart_time
            self.transport.rebase(key, restart_time)
            for position in range(channel.delivered, channel.sent):
                message = channel.log[position]
                arrival = max(
                    restart_time + self.latency(message.src, message.dst),
                    channel.last_arrival,
                )
                channel.last_arrival = arrival
                rebased = Message(
                    message_id=message.message_id,
                    src=message.src,
                    dst=message.dst,
                    lane=message.lane,
                    value=message.value,
                    send_time=message.send_time,
                    arrival_time=arrival,
                    piggyback=dict(message.piggyback),
                )
                channel.log[position] = rebased
                in_flight.append(rebased)
        return in_flight

    def replay_for_rank(
        self,
        rank: int,
        cut_cursors: dict[tuple[int, int, str], tuple[int, int]],
        restart_time: float,
    ) -> int:
        """Prepare channels for a *single-process* log-based restart.

        Unlike :meth:`rollback`, nothing is truncated and other
        processes' channels are untouched:

        - incoming channels (``* -> rank``) rewind their delivery cursor
          to the checkpoint's value, so the recovering process re-reads
          the logged messages (receiver-based message logging); their
          arrival times are re-based at *restart_time* (a stable-storage
          read, not a network transit);
        - outgoing channels (``rank -> *``) arm the replay cursor at the
          checkpoint's sent count, so re-executed sends up to the crash
          point are suppressed as duplicates.

        Returns the number of messages the process will re-consume.
        """
        replayed = 0
        for key, channel in self._channels.items():
            src, dst, _ = key
            if dst == rank:
                _, delivered = cut_cursors.get(key, (0, 0))
                delivered = min(delivered, channel.sent)
                for position in range(delivered, channel.delivered):
                    message = channel.log[position]
                    channel.log[position] = Message(
                        message_id=message.message_id,
                        src=message.src,
                        dst=message.dst,
                        lane=message.lane,
                        value=message.value,
                        send_time=message.send_time,
                        arrival_time=restart_time,
                        piggyback=dict(message.piggyback),
                    )
                    replayed += 1
                channel.delivered = delivered
            elif src == rank:
                sent, _ = cut_cursors.get(key, (0, 0))
                channel.replayed = min(sent, channel.sent)
                if channel.replayed >= channel.sent:
                    channel.replayed = None
        return replayed

    # -- introspection -----------------------------------------------------------------

    def queued_messages(self) -> list[Message]:
        """Every currently undelivered message, across all channels."""
        queued: list[Message] = []
        for channel in self._channels.values():
            queued.extend(channel.log[channel.delivered :])
        return queued

    def total_sent(self) -> int:
        """Total messages ever sent (across rollback truncations)."""
        return sum(c.sent for c in self._channels.values())
