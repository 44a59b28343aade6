"""Sync-and-Stop (SaS) coordinated checkpointing [Plank 1993].

Rounds are driven by a coordinator (rank 0) on a fixed period. Each
round exchanges exactly the message pattern the paper's model charges
for — three coordinator broadcasts (STOP, COMMIT, RESUME) and two
replies per participant (ACK-STOP, ACK-COMMIT): ``5(n-1)`` control
messages. Processes are paused from STOP to RESUME, so the collected
checkpoints trivially form a recovery line (and the pause is the
protocol's performance cost, visible in completion times).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.base import CheckpointingProtocol, checked_period
from repro.runtime.hooks import ControlMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation

COORDINATOR = 0


class SyncAndStopProtocol(CheckpointingProtocol):
    """Stop-the-world coordinated checkpointing."""

    name = "SaS"

    def __init__(self, period: float = 50.0) -> None:
        self.period = checked_period(period)
        self.round = 0
        self.round_active = False
        self.completed_rounds: list[int] = []
        self._stop_acks = 0
        self._commit_acks = 0

    # -- round orchestration ------------------------------------------------

    def on_start(self, sim: "Simulation") -> None:
        sim.schedule_timer(COORDINATOR, self.period, "sas-round")

    def on_timer(
        self, sim: "Simulation", rank: int, tag: str, time: float
    ) -> None:
        if tag != "sas-round":
            return
        now = time
        if not self.round_active and self._participants(sim):
            self.round += 1
            self.round_active = True
            self._stop_acks = 0
            self._commit_acks = 0
            for other in self._participants(sim):
                sim.send_control(
                    COORDINATOR, other, "stop", {"round": self.round}, now
                )
            sim.pause(COORDINATOR)
        sim.schedule_timer(COORDINATOR, now + self.period, "sas-round")

    def on_control(self, sim: "Simulation", message: ControlMessage) -> None:
        if message.data.get("round") != self.round:
            return  # stale message from an aborted round
        now = message.arrival_time
        if message.tag == "stop":
            sim.pause(message.dst)
            self._checkpoint_if_alive(sim, message.dst, now)
            sim.send_control(
                message.dst, COORDINATOR, "ack-stop", {"round": self.round}, now
            )
        elif message.tag == "ack-stop":
            self._stop_acks += 1
            if self._stop_acks == len(self._participants(sim)):
                self._checkpoint_if_alive(sim, COORDINATOR, now)
                for other in self._participants(sim):
                    sim.send_control(
                        COORDINATOR, other, "commit", {"round": self.round}, now
                    )
        elif message.tag == "commit":
            sim.send_control(
                message.dst, COORDINATOR, "ack-commit", {"round": self.round}, now
            )
        elif message.tag == "ack-commit":
            self._commit_acks += 1
            if self._commit_acks == len(self._participants(sim)):
                self.completed_rounds.append(self.round)
                self.round_active = False
                for other in self._participants(sim):
                    sim.send_control(
                        COORDINATOR, other, "resume", {"round": self.round}, now
                    )
                sim.resume(COORDINATOR, now)
        elif message.tag == "resume":
            sim.resume(message.dst, now)

    # -- recovery --------------------------------------------------------------

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Restore the last completed round (or the initial states)."""
        self.round_active = False  # abort any in-flight round
        self.round += 1  # invalidate stale control messages
        while self.completed_rounds:
            tag = f"sas-{self.completed_rounds[-1]}"
            if all(
                sim.storage.latest_with_tag(r, tag) is not None
                for r in range(sim.n)
            ):
                self.restore_tagged_round(sim, tag, time)
                return
            self.completed_rounds.pop()
        self.restore_common_number(sim, time)

    # -- helpers -----------------------------------------------------------------

    def _participants(self, sim: "Simulation") -> list[int]:
        return [r for r in range(sim.n) if r != COORDINATOR]

    def _checkpoint_if_alive(
        self, sim: "Simulation", rank: int, now: float
    ) -> None:
        proc = sim.procs[rank]
        if proc.status in ("crashed", "done"):
            return
        sim.take_checkpoint(rank, now, tag=f"sas-{self.round}")

