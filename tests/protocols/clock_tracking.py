"""In-band vector-clock tracking via message piggybacks.

The engine maintains vector clocks omnisciently (it sees every event).
A *real* implementation can only learn causality from data carried on
messages. This protocol reconstructs the clocks the realistic way —
each process keeps its own vector, ticks it on its events, piggybacks
it on every send, and merges on receive — and exposes the result so
tests can assert it **equals the engine's clocks at every checkpoint**.

That equality is the strongest evidence that the trace-based
consistency analyses (straight cuts, recovery lines, rollback search)
would behave identically in a deployment where only piggybacked
information exists.

Composes with the application-driven setting: it adds piggyback data
but no control messages and no forced checkpoints, so the
coordination-freedom stats are unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.causality.vector_clock import VectorClock
from repro.protocols.base import CheckpointingProtocol

from ..causality.pairwise_cuts import latest_with_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation
    from repro.runtime.network import Message

_PREFIX = "vc_"


class ClockTrackingProtocol(CheckpointingProtocol):
    """Track vector clocks using only piggybacked message data."""

    name = "clock-tracking"

    def __init__(self) -> None:
        self._clocks: dict[int, VectorClock] = {}
        # (rank, checkpoint number) -> tracked clock at that checkpoint
        self.checkpoint_clocks: dict[tuple[int, int], VectorClock] = {}

    def on_start(self, sim: "Simulation") -> None:
        for rank in range(sim.n):
            # Engine clocks start with the initial-checkpoint tick.
            self._clocks[rank] = VectorClock.zero(sim.n).tick(rank)

    # -- tracking rules ------------------------------------------------------

    def piggyback(self, sim: "Simulation", rank: int) -> dict[str, int]:
        """Attach the sender's clock (ticked for the send event)."""
        self._clocks[rank] = self._clocks[rank].tick(rank)
        return {
            f"{_PREFIX}{index}": component
            for index, component in enumerate(self._clocks[rank].components)
        }

    def on_app_message(
        self, sim: "Simulation", rank: int, message: "Message"
    ) -> None:
        """Tick for the receive event and merge the sender's clock."""
        carried = tuple(
            message.piggyback.get(f"{_PREFIX}{index}", 0)
            for index in range(sim.n)
        )
        self._clocks[rank] = self._clocks[rank].receive(
            VectorClock(carried), rank
        )

    def on_checkpoint(self, sim: "Simulation", rank: int, number: int) -> None:
        """Tick for the checkpoint event and record the tracked clock."""
        self._clocks[rank] = self._clocks[rank].tick(rank)
        self.checkpoint_clocks[(rank, number)] = self._clocks[rank]

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Straight-cut recovery, restoring the tracked clocks too."""
        common = self.restore_common_number(sim, time)
        for other in range(sim.n):
            stored = latest_with_number(sim.storage, other, common)
            tracked = self.checkpoint_clocks.get((other, stored.number))
            if tracked is not None:
                # +1 for the RESTART event the engine also ticks.
                self._clocks[other] = tracked.tick(other)
            else:
                self._clocks[other] = VectorClock.zero(sim.n).tick(other)
