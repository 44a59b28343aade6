"""Common protocol scaffolding."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RecoveryError, SimulationError, UnrecoverableError
from repro.runtime.hooks import ProtocolHooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation
    from repro.runtime.storage import StoredCheckpoint


def checked_period(period: float) -> float:
    """*period* itself, if a timer-driven protocol can checkpoint on it."""
    if not period > 0:
        raise SimulationError(f"period must be positive, got {period!r}")
    return period


class CheckpointingProtocol(ProtocolHooks):
    """Base class with shared recovery helpers."""

    name = "abstract"

    def deepest_intact_cut(
        self, sim: "Simulation"
    ) -> tuple[int, dict[int, "StoredCheckpoint"], int]:
        """The deepest fully-intact straight cut, with fallback depth.

        Starts from ``i`` = the deepest checkpoint number every process
        has reached and walks down: whenever any member of cut ``R_i``
        is missing (lost write) or fails its checksum (bit rot), fall
        back to ``R_{i-1}`` — which the paper's straight-cut structure
        makes well-defined and still coordination-free, since no
        process needs to negotiate which cut to use. Returns
        ``(number, cut, depth)`` where *depth* counts how many cuts had
        to be skipped (0 = the nominal recovery line was intact).

        A retrying recovery supervisor can ask for an even deeper cut
        (``sim.recovery_escalation`` > 0): the search then starts that
        many numbers below the nominal line, on top of whatever
        degradation corruption forces. Exhausting R_0 raises the
        terminal :class:`UnrecoverableError` verdict.
        """
        ranks = list(range(sim.n))
        common = sim.storage.max_common_number(ranks)
        if common < 0:
            raise RecoveryError("storage has no checkpoints at all")
        target = max(0, common - sim.recovery_escalation)
        lookup = sim.storage.intact_with_number
        while target >= 0:
            cut: dict[int, "StoredCheckpoint"] = {}
            for rank in ranks:
                checkpoint = lookup(rank, target)
                if checkpoint is None:
                    break
                cut[rank] = checkpoint
            else:
                return target, cut, common - target
            target -= 1
        raise UnrecoverableError(
            "no fully-intact straight cut survives on stable storage "
            f"(searched R_{common} down to R_0)"
        )

    def restore_common_number(
        self, sim: "Simulation", at_time: float, found=None
    ) -> int:
        """Roll back to the deepest *intact* common checkpoint number.

        This is straight-cut recovery with graceful degradation: with
        checkpoint number ``i`` = the largest number every process has
        reached (0 = initial state), restore each process's latest
        intact number-``i`` checkpoint, falling back to ``R_{i-1}``
        when a member is missing or corrupt. The fallback depth is
        recorded in :class:`~repro.runtime.config.SimulationStats`.
        *found* is the :meth:`deepest_intact_cut` result when the caller
        already searched (the search is run here otherwise). Returns
        the restored number.
        """
        if found is None:
            found = self.deepest_intact_cut(sim)
        number, cut, depth = found
        sim.stats.fallback_depths.append(depth)
        if depth:
            sim.stats.recovery_fallbacks += 1
            sim.emit(
                "degraded-fallback", None, at_time,
                protocol=self.name, nominal=number + depth, restored=number,
                depth=depth,
            )
        sim.emit(
            "recovery", None, at_time,
            protocol=self.name, number=number, depth=depth,
        )
        sim.restore_cut(cut, at_time)
        return number

    def restore_tagged_round(
        self, sim: "Simulation", tag: str, at_time: float
    ) -> None:
        """Roll back to the per-process checkpoints carrying *tag*.

        Used by coordinated protocols: *tag* identifies a completed
        round, so every process has exactly one matching checkpoint.
        A corrupt member is a hard error here — round tags carry no
        straight-cut structure to degrade along.
        """
        cut: dict[int, "StoredCheckpoint"] = {}
        for rank in range(sim.n):
            checkpoint = sim.storage.latest_with_tag(rank, tag)
            if checkpoint is None:
                raise RecoveryError(
                    f"rank {rank} has no checkpoint for round {tag!r}"
                )
            cut[rank] = checkpoint
        sim.restore_cut(cut, at_time)
