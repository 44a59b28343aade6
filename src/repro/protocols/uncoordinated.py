"""Uncoordinated (independent) checkpointing.

Every process checkpoints on its own timer, staggered per rank so
checkpoints never align — the setting where recovery must *search* for
a consistent cut among the saved checkpoints and rollback can cascade
(the domino effect, §1 of the paper). No control messages are ever
sent; the cost shows up entirely at recovery time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.causality.rollback_graph import max_consistent_positions
from repro.protocols.base import PeriodicProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation


class UncoordinatedProtocol(PeriodicProtocol):
    """Independent periodic checkpoints; clock-based rollback search."""

    name = "uncoordinated"
    timer = "indep"

    def __init__(self, period: float = 50.0, stagger: float = 0.5) -> None:
        super().__init__(period, stagger)
        self.domino_steps: list[int] = []
        self.rollback_depths: list[dict[int, int]] = []

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Search for the maximal consistent cut; domino if needed.

        Every process always has its number-0 (initial) checkpoint, so
        the fixpoint always lands on a valid cut — in the worst case the
        full restart the domino effect forces. Checkpoints that fail
        their checksum (bit rot, torn survivors) are excluded from the
        search up front, so the rollback can only land on restorable
        state; any such exclusion is recorded as a degraded recovery.
        """
        histories = {r: sim.storage.intact_history(r) for r in range(sim.n)}
        escalation = sim.recovery_escalation
        if escalation:
            # Supervisor escalation: drop the newest candidates so the
            # consistent-cut search is forced deeper (never below the
            # initial checkpoint, which is always a valid cut member).
            histories = {
                r: h[: max(1, len(h) - escalation)]
                for r, h in histories.items()
            }
        skipped = sum(
            sim.storage.count(r) - len(h) for r, h in histories.items()
        )
        sim.record_fallback(skipped)
        positions, domino = max_consistent_positions(
            {r: [c.clock for c in h] for r, h in histories.items()}
        )
        cut = {}
        depths = {}
        for r, history in histories.items():
            pos = max(0, positions[r])  # position 0 is the initial state
            cut[r] = history[pos]
            depths[r] = len(history) - 1 - pos
        self.domino_steps.append(domino)
        self.rollback_depths.append(depths)
        sim.emit(
            "domino-search", None, time,
            protocol=self.name, domino_steps=domino,
            max_depth=max(depths.values(), default=0),
        )
        sim.emit(
            "recovery", None, time,
            protocol=self.name, depth=skipped,
            numbers={str(r): c.number for r, c in sorted(cut.items())},
        )
        sim.restore_cut(cut, time)
