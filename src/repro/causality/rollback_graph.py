"""Rollback-dependency analysis for uncoordinated checkpointing.

With independent (uncoordinated) checkpoints, recovery must search for
the most recent consistent cut among the available checkpoints; rollback
can cascade — the *domino effect* (paper §1). This module implements
the classic fixpoint: start from each process's latest checkpoint and,
while some member happened-before another, roll the offending process
back one checkpoint. The result is the maximal consistent cut at or
below the starting cut (or the initial states, if the dominoes fall all
the way).

Also exposes the rollback-dependency graph itself (edges between
checkpoint intervals induced by messages) for inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.causality.cuts import (
    CheckpointCut,
    checkpoints_by_process,
    first_causal_pair,
)
from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock


@dataclass(frozen=True)
class RollbackAnalysis:
    """Result of the recovery-line search.

    Attributes:
        cut: The maximal consistent cut found, or ``None`` when some
            process had to roll back past its first checkpoint (restart
            from the initial state — the full domino effect).
        rollbacks: Per-process count of checkpoints discarded relative
            to each process's latest checkpoint.
        domino_steps: Number of fixpoint iterations that discarded a
            checkpoint (0 when the latest checkpoints were already
            consistent).
        rolled_to_start: Ranks that fell back to their initial state.
    """

    cut: CheckpointCut | None
    rollbacks: dict[int, int] = field(default_factory=dict)
    domino_steps: int = 0
    rolled_to_start: frozenset[int] = frozenset()


def build_rollback_graph(
    events: list[TraceEvent],
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Edges between checkpoint intervals induced by messages.

    Interval ``(p, k)`` is process *p*'s execution after its *k*-th
    checkpoint (``k = 0`` is before any checkpoint). A message sent in
    ``(p, k)`` and received in ``(q, j)`` adds the edge
    ``(p, k) -> (q, j)``: if ``(p, k)``'s checkpoint is rolled back,
    ``(q, j)``'s receive becomes orphaned.
    """
    grouped = checkpoints_by_process(events)

    def interval_of(event: TraceEvent) -> tuple[int, int]:
        history = grouped.get(event.process, [])
        count = sum(1 for c in history if c.seq < event.seq)
        return (event.process, count)

    sends: dict[int, TraceEvent] = {}
    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for event in events:
        if event.kind is EventKind.SEND and event.message_id is not None:
            sends[event.message_id] = event
    for event in events:
        if event.kind is not EventKind.RECV or event.message_id is None:
            continue
        send = sends.get(event.message_id)
        if send is None:
            continue
        edges.setdefault(interval_of(send), set()).add(interval_of(event))
    return edges


def max_consistent_positions(
    clock_lists: dict[int, list[VectorClock]],
) -> tuple[dict[int, int], int]:
    """Fixpoint search for the maximal pairwise-concurrent positions.

    *clock_lists* maps each process to the vector clocks of its
    checkpoints, oldest first. Starting from the latest positions,
    while some member's clock happened-before another member's, the
    *later* member's process rolls back one position (rolling the
    earlier one back cannot remove the dependency). Returns the final
    positions (−1 = before the first listed checkpoint) and the number
    of rollback steps taken — the domino count.

    Each step resolves :func:`~repro.causality.cuts.first_causal_pair`.
    While clocks grow along each list, as a run's do, a dependency
    stays until its later member rolls back, so every step is forced
    and neither result depends on which pair goes first.
    """
    position = {rank: len(clocks) - 1 for rank, clocks in clock_lists.items()}
    domino_steps = 0
    while True:
        pair = first_causal_pair({
            rank: clock_lists[rank][pos]
            for rank, pos in position.items()
            if pos >= 0  # −1: before every listed checkpoint
        })
        if pair is None:
            return position, domino_steps
        # The later member has the earlier one in its past: rolling the
        # earlier one back would orphan it, so the later one rolls back.
        position[pair[1]] -= 1
        domino_steps += 1


def max_consistent_cut(
    events: list[TraceEvent], processes: list[int]
) -> RollbackAnalysis:
    """Find the maximal consistent cut at or below the latest checkpoints.

    A process with no remaining checkpoint falls to its initial state,
    modelled as a virtual position −1 (consistent with everything that
    does not precede it — which is everything).
    """
    grouped = checkpoints_by_process(events)
    position, domino_steps = max_consistent_positions(
        {rank: [c.clock for c in grouped.get(rank, [])] for rank in processes}
    )
    rolled_to_start = frozenset(r for r in processes if position[r] < 0)
    rollbacks = {
        rank: len(grouped.get(rank, [])) - 1 - position[rank]
        for rank in processes
    }
    if rolled_to_start:
        return RollbackAnalysis(
            cut=None,
            rollbacks=rollbacks,
            domino_steps=domino_steps,
            rolled_to_start=rolled_to_start,
        )
    members = tuple(grouped[rank][position[rank]] for rank in processes)
    cut = CheckpointCut(members=members) if members else None
    return RollbackAnalysis(
        cut=cut,
        rollbacks=rollbacks,
        domino_steps=domino_steps,
        rolled_to_start=rolled_to_start,
    )
