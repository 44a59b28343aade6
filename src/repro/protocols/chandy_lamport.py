"""Chandy-Lamport distributed snapshots [C-L 1985] as a checkpointing
protocol.

An initiator (rank 0) starts a snapshot round on a fixed period: it
checkpoints and sends a MARKER on each outgoing channel. A process
receiving its first marker of the round checkpoints immediately and
relays markers on its own outgoing channels, then acknowledges the
initiator. Execution is never paused — that is C-L's selling point over
SaS — but markers flood every directed channel: ``n(n-1)`` markers plus
``n-1`` completion acks per round (the paper's analytic model charges
``2n(n-1)``; the simulator reports what this implementation actually
sends).

Channel state: checkpoints store exact channel cursors (see
:class:`~repro.runtime.storage.StoredCheckpoint`), so the in-flight
messages of the snapshot cut are recovered precisely on rollback — the
same information C-L's per-channel recording collects. Control messages
travel faster than application messages (``control_latency`` <
``base_latency``), preserving the marker-ordering property that makes
the cut consistent; the test suite re-validates consistency by vector
clocks on every recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.base import COORDINATOR, RoundProtocol
from repro.runtime.hooks import ControlMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation


class ChandyLamportProtocol(RoundProtocol):
    """Marker-based coordinated snapshots."""

    name = "C-L"
    prefix = "cl"

    def __init__(self, period: float = 50.0) -> None:
        super().__init__(period)
        self._snapshotted: set[int] = set()
        self._acks = 0

    def _start_round(self, sim: "Simulation", now: float) -> None:
        if self._snapshotted and len(self._snapshotted) < sim.n:
            return  # the last round's markers are still spreading
        self.round += 1
        self._snapshotted = set()
        self._acks = 0
        self._snapshot_and_relay(sim, COORDINATOR, now)

    def _abort_round(self) -> None:
        self._snapshotted = set()

    def on_control(self, sim: "Simulation", message: ControlMessage) -> None:
        if message.data.get("round") != self.round:
            return  # stale marker/ack from an aborted round
        now = message.arrival_time
        if message.tag == "marker":
            if message.dst not in self._snapshotted:
                self._snapshot_and_relay(sim, message.dst, now)
                sim.send_control(
                    message.dst, COORDINATOR, "ack", {"round": self.round}, now
                )
        elif message.tag == "ack":
            self._acks += 1
            if self._acks == sim.n - 1:
                self.completed_rounds.append(self.round)

    def _snapshot_and_relay(
        self, sim: "Simulation", rank: int, now: float
    ) -> None:
        self._snapshotted.add(rank)
        self._round_checkpoint(sim, rank, now)
        for other in range(sim.n):
            if other != rank:
                sim.send_control(
                    rank, other, "marker", {"round": self.round}, now
                )
