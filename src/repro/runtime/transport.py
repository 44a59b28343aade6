"""Reliable transport over an unreliable medium.

The system model (§2) assumes asynchronous, **reliable**, FIFO
channels. This module stops taking that on faith: it sits beneath
:class:`repro.runtime.network.Network` and *earns* the reliable-FIFO
contract over a medium that drops, duplicates, delays, corrupts, and
partitions frames (:class:`repro.runtime.failures.NetworkFaultEvent`).

The state machine is the classic positive-ACK one, simulated to
completion at send time (the engine is a discrete-event simulator, so
a transmission's whole future — retransmissions included — is a
deterministic function of the fault schedule):

- every application message becomes one **data frame** carrying a
  per-channel sequence number and a CRC-32 over ``(seq, payload)``;
- the sender fires the frame, arms a retransmission timer at
  :data:`RTO_FACTOR` x latency, and **doubles** the timeout on every
  retry (mirroring the storage retry backoff in ``commit.py``), all
  charged to the simulated clock via later arrival times;
- the receiver CRC-checks each copy, discards corrupt ones, suppresses
  duplicates by sequence number, holds out-of-order frames in a
  reorder buffer until the gap fills, and answers every intact copy
  with a **cumulative ACK**;
- the sender stops retransmitting as soon as an ACK for the frame
  gets back; ACKs lost to partitions simply leave the timer running.

Everything above the transport keeps seeing reliable FIFO channels:
``Network``'s append-only logs, cut-rollback semantics, and the
protocols are untouched. Transport activity is metered in
:class:`TransportStats` and surfaced through
:class:`~repro.runtime.config.SimulationStats`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ChannelError, SimulationError
from repro.runtime.failures import NetworkFaultEvent, NetworkFaultKind


def frame_checksum(seq: int, value: int) -> int:
    """CRC-32 over a data frame's ``(seq, payload)`` wire content."""
    return zlib.crc32(repr((seq, value)).encode())


#: Initial retransmission timeout as a multiple of the channel's one-way
#: latency. It exceeds 2 (a round trip), so a fault-free exchange always
#: beats the first timer and fault-free runs stay retransmission-free.
RTO_FACTOR = 3.0
#: Transmission attempts per frame before the transport gives up with a
#: :class:`~repro.errors.ChannelError` (the guard against unhealed
#: partitions).
MAX_ATTEMPTS = 64
#: Arrival spacing of a duplicated frame's second copy behind its first.
DUPLICATE_GAP = 0.01


@dataclass
class TransportStats:
    """Counters of transport activity beneath the reliable façade."""

    frames_sent: int = 0        # data-frame transmissions, retries included
    retransmits: int = 0        # timer-driven re-sends
    dropped_frames: int = 0     # lost to drop faults or partitions
    corrupt_frames: int = 0     # CRC-rejected at the receiver
    delayed_frames: int = 0     # held on the wire by a delay fault
    duplicate_frames: int = 0   # extra copies the medium created
    dups_suppressed: int = 0    # receiver-side sequence-number dedup hits
    ack_frames: int = 0         # cumulative ACKs receivers put on the wire
    acks_lost: int = 0          # ACKs lost to partitions


class NetworkFaultInjector:
    """Deterministic per-frame fault oracle built from a fault schedule.

    One-shot events arm at their ``time`` and are consumed by the first
    matching frame transmission at or after it (in transmission order,
    like the storage write faults in the engine). Partition/heal pairs
    become blackout windows per unordered rank pair; both data frames
    and ACKs launched inside a window are lost.
    """

    def __init__(self, events: list[NetworkFaultEvent] | None = None) -> None:
        events = list(events or [])
        self._armed: list[NetworkFaultEvent] = sorted(
            (e for e in events if e.kind not in (
                NetworkFaultKind.PARTITION, NetworkFaultKind.HEAL,
            )),
            key=lambda e: (e.time, e.src, e.dst, e.kind.value),
        )
        self._windows: dict[tuple[int, int], list[tuple[float, float]]] = {}
        opens: dict[tuple[int, int], float] = {}
        for event in sorted(events, key=lambda e: e.time):
            if event.kind is NetworkFaultKind.PARTITION:
                opens[event.pair] = event.time
            elif event.kind is NetworkFaultKind.HEAL:
                start = opens.pop(event.pair, None)
                if start is None:
                    raise SimulationError(
                        f"heal of pair {event.pair} at time {event.time} "
                        "closes no open partition"
                    )
                self._windows.setdefault(event.pair, []).append(
                    (start, event.time)
                )
        for pair, start in opens.items():
            # An unhealed partition blacks the pair out forever.
            self._windows.setdefault(pair, []).append((start, math.inf))

    @property
    def has_faults(self) -> bool:
        """Whether any fault (armed or windowed) exists at all."""
        return bool(self._armed) or bool(self._windows)

    def partitioned(self, a: int, b: int, now: float) -> bool:
        """Whether the pair ``{a, b}`` is inside a blackout at *now*."""
        pair = (min(a, b), max(a, b))
        return any(
            start <= now < end
            for start, end in self._windows.get(pair, ())
        )

    def take(self, src: int, dst: int, now: float) -> NetworkFaultEvent | None:
        """Pop the first armed one-shot fault matching this transmission."""
        for position, event in enumerate(self._armed):
            if event.time > now:
                break
            if event.src == src and event.dst == dst:
                return self._armed.pop(position)
        return None


@dataclass
class _ChannelTransport:
    """Per-channel transport state (sender and receiver ends)."""

    next_seq: int = 0          # sender: next sequence number to assign
    delivered_seq: int = -1    # receiver: highest in-order seq released
    last_delivery: float = 0.0  # receiver: release time of that seq


class Delivery(NamedTuple):
    """Outcome of one reliable transmission.

    ``delivery_time`` is when the receiver releases the payload to the
    application — after CRC checks, dedup, reordering, and however many
    retransmissions the fault schedule forced.
    """

    delivery_time: float
    seq: int
    attempts: int


class ReliableTransport:
    """The reliable-FIFO transport under every :class:`Network` channel."""

    def __init__(
        self,
        injector: NetworkFaultInjector | None = None,
        observer=None,
    ) -> None:
        self.injector = injector if injector is not None \
            else NetworkFaultInjector()
        self.stats = TransportStats()
        self.obs = observer
        self._channels: dict[tuple[int, int, str], _ChannelTransport] = {}

    def transmit(
        self,
        src: int,
        dst: int,
        lane: str,
        value: int,
        send_time: float,
        latency: float,
    ) -> Delivery:
        """Push one payload through the lossy medium until ACKed.

        Simulates the whole exchange — transmissions, losses,
        retransmission timers with exponential backoff, receiver-side
        CRC/dedup/reordering, cumulative ACKs — and returns the
        resulting :class:`Delivery`. Raises
        :class:`~repro.errors.ChannelError` when :data:`MAX_ATTEMPTS`
        transmissions all fail (an unhealed partition, in practice).
        """
        # get-then-insert: setdefault would build a throwaway state on
        # every send to a known channel.
        key = (src, dst, lane)
        state = self._channels.get(key)
        if state is None:
            state = self._channels[key] = _ChannelTransport()
        seq = state.next_seq
        state.next_seq += 1
        if self.obs is None and not self.injector.has_faults:
            # Fault-free, untraced wire: exactly one attempt fires (the
            # first ACK lands at send+2·latency, before the retransmit
            # timer at RTO_FACTOR > 2 expires), the copy arrives
            # intact, and its ACK gets through — so the whole exchange
            # collapses to one arrival plus the reorder-buffer floor,
            # with the same stats the general loop would record.
            self.stats.frames_sent += 1
            self.stats.ack_frames += 1
            arrival = send_time + latency
            delivery = (
                arrival if arrival > state.last_delivery
                else state.last_delivery
            )
            state.delivered_seq = seq
            state.last_delivery = delivery
            return tuple.__new__(Delivery, (delivery, seq, 1))
        crc = frame_checksum(seq, value)
        rto = RTO_FACTOR * latency
        attempt_time = send_time
        first_ack = math.inf
        arrivals: list[float] = []
        attempts = 0
        while attempt_time < first_ack:
            if attempts >= MAX_ATTEMPTS:
                raise ChannelError(
                    f"reliable transport gave up on seq {seq} after "
                    f"{attempts} attempts (unhealed partition?)",
                    src=src, dst=dst, lane=lane,
                )
            attempts += 1
            self.stats.frames_sent += 1
            if attempts > 1:
                self.stats.retransmits += 1
            if self.obs is not None:
                self.obs.emit(
                    "transport", "frame", src, attempt_time,
                    dst=dst, lane=lane, seq=seq, attempt=attempts,
                )
            for arrival in self._attempt(
                src, dst, seq, value, crc, attempt_time, latency
            ):
                arrivals.append(arrival)
                # Every intact copy is (re-)ACKed cumulatively; an ACK
                # launched inside a partition window is lost and the
                # sender's timer keeps running.
                self.stats.ack_frames += 1
                if self.injector.partitioned(dst, src, arrival):
                    self.stats.acks_lost += 1
                    if self.obs is not None:
                        self.obs.emit(
                            "transport", "ack-lost", dst, arrival,
                            peer=src, lane=lane, seq=seq,
                        )
                else:
                    first_ack = min(first_ack, arrival + latency)
                    if self.obs is not None:
                        self.obs.emit(
                            "transport", "ack", dst, arrival,
                            peer=src, lane=lane, seq=seq,
                        )
            attempt_time += rto
            rto *= 2.0
        # Every copy past the first is a duplicate the receiver drops
        # by its sequence number.
        self.stats.dups_suppressed += len(arrivals) - 1
        # Reorder buffer: the payload is released to the application
        # only once every earlier seq on the channel has been, so a
        # delayed predecessor holds this frame back.
        delivery = max(min(arrivals), state.last_delivery)
        state.delivered_seq = seq
        state.last_delivery = delivery
        return Delivery(delivery_time=delivery, seq=seq, attempts=attempts)

    def _attempt(
        self,
        src: int,
        dst: int,
        seq: int,
        value: int,
        crc: int,
        when: float,
        latency: float,
    ) -> list[float]:
        """Arrival times of intact copies from one wire transmission."""
        if self.injector.partitioned(src, dst, when):
            self.stats.dropped_frames += 1
            self._emit_fault("drop", src, dst, seq, when, partition=1)
            return []
        fault = self.injector.take(src, dst, when)
        kind = fault.kind if fault is not None else None
        if kind is NetworkFaultKind.DROP:
            self.stats.dropped_frames += 1
            self._emit_fault("drop", src, dst, seq, when)
            return []
        if kind is NetworkFaultKind.CORRUPT:
            # Genuine corruption detection: flip one payload bit and
            # let the receiver's CRC catch the mismatch.
            corrupted = value ^ (1 << (seq % 31))
            if frame_checksum(seq, corrupted) != crc:
                self.stats.corrupt_frames += 1
                self._emit_fault("corrupt", src, dst, seq, when)
                return []
        arrival = when + latency
        if kind is NetworkFaultKind.DELAY:
            self.stats.delayed_frames += 1
            arrival += fault.delay
            self._emit_fault("delay", src, dst, seq, when, delay=fault.delay)
        copies = [arrival]
        if kind is NetworkFaultKind.DUPLICATE:
            self.stats.duplicate_frames += 1
            self._emit_fault("duplicate", src, dst, seq, when)
            copies.append(arrival + DUPLICATE_GAP)
        return copies

    def _emit_fault(
        self, name: str, src: int, dst: int, seq: int, when: float,
        **fields,
    ) -> None:
        """Publish one medium-fault event (no-op when untraced)."""
        if self.obs is not None:
            self.obs.emit(
                "transport", name, src, when, dst=dst, seq=seq, **fields
            )

    def rebase(self, key: tuple[int, int, str], restart_time: float) -> None:
        """Reset a channel's delivery floor after a rollback.

        Sequence numbers keep rising across incarnations (a number is
        never reused), so stale duplicates from before the cut can
        never be mistaken for post-rollback traffic.
        """
        state = self._channels.get(key)
        if state is not None:
            state.last_delivery = restart_time
