"""Common protocol scaffolding."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.causality.cuts import first_causal_pair
from repro.errors import RecoveryError, SimulationError, UnrecoverableError
from repro.runtime.hooks import ProtocolHooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation
    from repro.runtime.storage import StoredCheckpoint


#: The rank whose timer starts every coordinated round.
COORDINATOR = 0


def checked_period(period: float) -> float:
    """*period* itself, if a timer-driven protocol can checkpoint on it."""
    if not period > 0:
        raise SimulationError(f"period must be positive, got {period!r}")
    return period


class CheckpointingProtocol(ProtocolHooks):
    """Base class with shared recovery helpers."""

    name = "abstract"

    def deepest_intact_cut(
        self, sim: "Simulation", consistent: bool = False
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

        With *consistent*, a cut whose members are causally ordered by
        their vector clocks (:func:`~repro.causality.cuts.first_causal_pair`)
        is skipped too: a protocol whose straight cuts are not recovery
        lines by construction must not restore one that is not.
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
                if not consistent or first_causal_pair(
                    {rank: member.clock for rank, member in cut.items()}
                ) is None:
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
        sim.record_fallback(depth)
        if depth:
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


class PeriodicProtocol(CheckpointingProtocol):
    """Every rank checkpoints on its own timer, staggered by rank so
    the timers never align; subclasses choose the checkpoint rule and
    the recovery."""

    #: The timer tag, and the tag of every checkpoint the timer takes.
    timer = "abstract"

    def __init__(self, period: float = 50.0, stagger: float = 0.5) -> None:
        self.period = checked_period(period)
        self.stagger = stagger

    def on_start(self, sim: "Simulation") -> None:
        for rank in range(sim.n):
            first = self.period * (1.0 + self.stagger * rank / max(1, sim.n))
            sim.schedule_timer(rank, first, self.timer)

    def on_timer(
        self, sim: "Simulation", rank: int, tag: str, time: float
    ) -> None:
        if tag != self.timer:
            return
        if sim.procs[rank].status not in ("crashed", "done"):
            self._checkpoint(sim, rank, time)
        sim.schedule_timer(rank, time + self.period, self.timer)

    def _checkpoint(self, sim: "Simulation", rank: int, time: float) -> None:
        sim.take_checkpoint(rank, time, tag=self.timer)


class RoundProtocol(CheckpointingProtocol):
    """Rank 0 starts a coordinated checkpoint round every period.

    Subclasses run the round (:meth:`_start_round` and their control
    messages), tag its checkpoints ``f"{prefix}-{round}"`` and append
    each round that completes to ``completed_rounds``; recovery is
    shared.
    """

    #: Tag prefix of the round timer and of every round checkpoint.
    prefix = "abstract"
    #: A round's checkpoints, one per rank, form a recovery line.
    recovery_lines = "tag"

    def __init__(self, period: float = 50.0) -> None:
        self.period = checked_period(period)
        self.timer = f"{self.prefix}-round"
        self.round = 0
        self.completed_rounds: list[int] = []

    def on_start(self, sim: "Simulation") -> None:
        sim.schedule_timer(COORDINATOR, self.period, self.timer)

    def on_timer(
        self, sim: "Simulation", rank: int, tag: str, time: float
    ) -> None:
        if tag != self.timer:
            return
        self._start_round(sim, time)
        sim.schedule_timer(COORDINATOR, time + self.period, self.timer)

    def _start_round(self, sim: "Simulation", time: float) -> None:
        raise NotImplementedError

    def _abort_round(self) -> None:
        raise NotImplementedError

    def _round_checkpoint(
        self, sim: "Simulation", rank: int, now: float
    ) -> None:
        if sim.procs[rank].status not in ("crashed", "done"):
            sim.take_checkpoint(rank, now, tag=f"{self.prefix}-{self.round}")

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Restore the newest completed round every rank still stores,
        or else the deepest intact common checkpoint number whose cut
        is consistent.

        A completed round's tag marks exactly one checkpoint per rank,
        which together form a recovery line; a round that retention or
        a restore has since removed from some rank, or one with a member
        that lost its storage quorum, is dropped for good. A restore
        below rounds that lost their quorum records how many it skipped.
        Checkpoint numbers count the program's own ``checkpoint``
        statements too, so a number cut need not be a recovery line:
        the fallback descends past every inconsistent one (R_0, the
        initial states, always passes).
        """
        self._abort_round()
        self.round += 1  # invalidate the aborted round's control messages
        storage = sim.storage
        corrupt = 0
        while self.completed_rounds:
            tag = f"{self.prefix}-{self.completed_rounds[-1]}"
            cut = {r: storage.latest_with_tag(r, tag) for r in range(sim.n)}
            if None not in cut.values():
                if all(map(storage.verify, cut.values())):
                    if corrupt:
                        sim.record_fallback(corrupt)
                    sim.restore_cut(cut, time)
                    return
                corrupt += 1
            self.completed_rounds.pop()
        self.restore_common_number(
            sim, time, self.deepest_intact_cut(sim, consistent=True)
        )
