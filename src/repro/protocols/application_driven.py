"""The paper's application-driven coordination-free protocol.

At run time this protocol does *nothing at all* during failure-free
execution — the transformed program's ``checkpoint`` statements create
all checkpoints, no control messages flow, and no checkpoint is ever
forced. That absence is the paper's claim, and the simulator's stats
prove it per run (``control_messages == forced_checkpoints == 0``).

On a failure, the recovery line is *known in advance* (the paper's
coordinated-strength property): the straight cut ``R_i`` with ``i`` the
deepest checkpoint number every process has reached. Phase III
guarantees ``R_i`` is consistent, which
:meth:`ApplicationDrivenProtocol.on_failure` re-validates by vector
clocks before restoring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.causality.cuts import first_causal_pair
from repro.errors import RecoveryError
from repro.protocols.base import CheckpointingProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation


class ApplicationDrivenProtocol(CheckpointingProtocol):
    """Coordination-free checkpointing for Phase-III-transformed programs."""

    name = "appl-driven"
    #: The paper's central claim: Phase III's placement makes every
    #: straight cut a recovery line (Theorem 3.2).
    recovery_lines = "number"

    def __init__(self) -> None:
        self.recovered_to: list[int] = []

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Restore the deepest *intact* common straight cut ``R_i``.

        When storage faults have eaten members of the nominal ``R_i``,
        the shared degraded-recovery search falls back to the deepest
        fully-intact ``R_{i-1}``. That one search yields the cut that is
        validated and then restored.
        """
        found = self.deepest_intact_cut(sim)
        number, members, _ = found
        self._validate_cut(number, members)
        sim.emit(
            "cut-validated", None, time,
            protocol=self.name, number=number,
        )
        self.recovered_to.append(
            self.restore_common_number(sim, time, found)
        )

    def _validate_cut(self, common: int, members) -> None:
        """Check by vector clocks that the straight cut is a recovery line.

        Reads each stored member's own clock (the object its trace
        event carries too), *members* mapping rank to checkpoint. A
        failure names the first ordered pair of ranks whose members are
        causally ordered — surfacing it beats silently restoring an
        inconsistent state.
        """
        if common <= 0:
            return  # initial cut, trivially consistent
        pair = first_causal_pair(
            {rank: checkpoint.clock for rank, checkpoint in members.items()}
        )
        if pair is not None:
            raise RecoveryError(
                f"straight cut R_{common} is not a recovery line: by "
                f"vector clocks, rank {pair[0]}'s checkpoint happened "
                f"before rank {pair[1]}'s"
            )
