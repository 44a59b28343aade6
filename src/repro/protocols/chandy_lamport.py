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

from repro.protocols.base import CheckpointingProtocol, checked_period
from repro.runtime.hooks import ControlMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation

INITIATOR = 0


class ChandyLamportProtocol(CheckpointingProtocol):
    """Marker-based coordinated snapshots."""

    name = "C-L"

    def __init__(self, period: float = 50.0) -> None:
        self.period = checked_period(period)
        self.round = 0
        self.completed_rounds: list[int] = []
        self._snapshotted: set[int] = set()
        self._acks = 0

    def on_start(self, sim: "Simulation") -> None:
        sim.schedule_timer(INITIATOR, self.period, "cl-round")

    def on_timer(
        self, sim: "Simulation", rank: int, tag: str, time: float
    ) -> None:
        if tag != "cl-round":
            return
        round_done = (
            not self._snapshotted or len(self._snapshotted) == sim.n
        )
        if round_done:
            self.round += 1
            self._snapshotted = set()
            self._acks = 0
            self._snapshot_and_relay(sim, INITIATOR, time)
        sim.schedule_timer(INITIATOR, time + self.period, "cl-round")

    def on_control(self, sim: "Simulation", message: ControlMessage) -> None:
        if message.data.get("round") != self.round:
            return  # stale marker/ack from an aborted round
        now = message.arrival_time
        if message.tag == "marker":
            if message.dst not in self._snapshotted:
                self._snapshot_and_relay(sim, message.dst, now)
                sim.send_control(
                    message.dst, INITIATOR, "ack", {"round": self.round}, now
                )
        elif message.tag == "ack":
            self._acks += 1
            if self._acks == sim.n - 1:
                self.completed_rounds.append(self.round)

    def _snapshot_and_relay(
        self, sim: "Simulation", rank: int, now: float
    ) -> None:
        self._snapshotted.add(rank)
        proc = sim.procs[rank]
        if proc.status not in ("crashed", "done"):
            sim.take_checkpoint(rank, now, tag=f"cl-{self.round}")
        for other in range(sim.n):
            if other != rank:
                sim.send_control(
                    rank, other, "marker", {"round": self.round}, now
                )

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Restore the last completed snapshot round."""
        self.round += 1  # invalidate in-flight markers
        self._snapshotted = set()
        while self.completed_rounds:
            tag = f"cl-{self.completed_rounds[-1]}"
            if all(
                sim.storage.latest_with_tag(r, tag) is not None
                for r in range(sim.n)
            ):
                self.restore_tagged_round(sim, tag, time)
                return
            self.completed_rounds.pop()
        self.restore_common_number(sim, time)
