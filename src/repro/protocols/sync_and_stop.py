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

from repro.protocols.base import COORDINATOR, RoundProtocol
from repro.runtime.hooks import ControlMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation


class SyncAndStopProtocol(RoundProtocol):
    """Stop-the-world coordinated checkpointing."""

    name = "SaS"
    prefix = "sas"

    def __init__(self, period: float = 50.0) -> None:
        super().__init__(period)
        self.round_active = False
        self._stop_acks = 0
        self._commit_acks = 0

    def _start_round(self, sim: "Simulation", now: float) -> None:
        if self.round_active or not self._participants(sim):
            return
        self.round += 1
        self.round_active = True
        self._stop_acks = 0
        self._commit_acks = 0
        for other in self._participants(sim):
            sim.send_control(
                COORDINATOR, other, "stop", {"round": self.round}, now
            )
        sim.pause(COORDINATOR)

    def _abort_round(self) -> None:
        self.round_active = False

    def on_control(self, sim: "Simulation", message: ControlMessage) -> None:
        if message.data.get("round") != self.round:
            return  # stale message from an aborted round
        now = message.arrival_time
        if message.tag == "stop":
            sim.pause(message.dst)
            self._round_checkpoint(sim, message.dst, now)
            sim.send_control(
                message.dst, COORDINATOR, "ack-stop", {"round": self.round}, now
            )
        elif message.tag == "ack-stop":
            self._stop_acks += 1
            if self._stop_acks == len(self._participants(sim)):
                self._round_checkpoint(sim, COORDINATOR, now)
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

    def _participants(self, sim: "Simulation") -> list[int]:
        return [r for r in range(sim.n) if r != COORDINATOR]
