"""Receiver-based pessimistic message logging.

The log-based branch of the rollback-recovery taxonomy (Elnozahy et
al.'s survey, the paper's [10]): every received message is available on
stable storage (here: the simulator's durable channel logs), so a
failed process can be restarted *alone* from its own latest checkpoint
and brought back to its pre-crash state by deterministic replay —
re-reading its logged messages and suppressing its duplicate sends.
Survivors never roll back.

Contrast with the paper's protocol: message logging also avoids
coordination, but pays for it on the fast path (every message is
logged synchronously — modelled here by the simulator's channel logs at
zero extra cost, so our comparison is *generous* to logging) and
recovery replays the whole interval of lost computation. The
application-driven approach pays nothing at run time and restores a
precomputed recovery line instead of replaying.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.base import PeriodicProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation


class MessageLoggingProtocol(PeriodicProtocol):
    """Independent checkpoints + single-process log-based recovery."""

    name = "msg-logging"
    timer = "mlog"

    def __init__(self, period: float = 50.0, stagger: float = 0.5) -> None:
        super().__init__(period, stagger)
        self.single_restarts: list[int] = []

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Restart only the failed process; survivors are untouched.

        Corrupt checkpoints of the victim are skipped (newest-first):
        the channel logs reach arbitrarily far back, so replay from an
        older intact checkpoint still converges to the pre-crash state —
        it just replays more. The skip depth is recorded as a degraded
        recovery. A retrying supervisor escalates the same way: each
        retry asks for one intact checkpoint older than the last.
        """
        checkpoint, depth = sim.storage.latest_intact(
            rank, skip=sim.recovery_escalation
        )
        sim.record_fallback(depth)
        sim.emit(
            "replay-restart", rank, time,
            protocol=self.name, number=checkpoint.number, depth=depth,
        )
        sim.emit(
            "recovery", rank, time,
            protocol=self.name, number=checkpoint.number, depth=depth,
        )
        sim.restore_single(checkpoint, time)
        self.single_restarts.append(rank)
