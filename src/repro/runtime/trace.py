"""Execution traces: the recorded local histories of a run.

The trace is the bridge between the simulator and the causality
analyses: every traced event carries a vector clock, so straight cuts,
recovery lines, and rollback graphs are all computable offline from the
trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.causality.cuts import (
    CheckpointCut,
    checkpoints_by_process,
    cut_is_consistent,
    max_straight_cut_index,
    straight_cut,
)
from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock


@dataclass
class ExecutionTrace:
    """All events of one simulation, in global append order.

    ``observer`` is the optional observability bus: when set, every
    appended event is also published as a structured ``engine``
    category event (see :mod:`repro.obs`), making this single append
    point the engine's entire tap.
    """

    n_processes: int
    events: list[TraceEvent] = field(default_factory=list)
    _seq: dict[int, int] = field(default_factory=dict)
    observer: object | None = field(default=None, repr=False, compare=False)

    def append(
        self,
        kind: EventKind,
        process: int,
        time: float,
        clock: VectorClock,
        message_id: int | None = None,
        peer: int | None = None,
        checkpoint_number: int | None = None,
        stmt_id: int | None = None,
    ) -> TraceEvent:
        """Record an event, assigning its local-history sequence number."""
        seq = self._seq.get(process, 0)
        self._seq[process] = seq + 1
        # tuple.__new__ skips the generated __new__'s argument binding:
        # the engine appends one event per traced effect.
        event = tuple.__new__(
            TraceEvent,
            (kind, process, seq, time, clock, message_id, peer,
             checkpoint_number, stmt_id),
        )
        self.events.append(event)
        if self.observer is not None:
            self.observer.emit_trace_event(event)
        return event

    # -- queries ---------------------------------------------------------------

    def checkpoint_events(self) -> dict[int, list[TraceEvent]]:
        """Checkpoint events grouped by process."""
        return checkpoints_by_process(self.events)

    def straight_cut(self, index: int) -> CheckpointCut | None:
        """The straight cut ``R_index`` over this trace (1-based)."""
        return straight_cut(
            self.events, index, processes=list(range(self.n_processes))
        )

    def max_straight_cut_index(self) -> int:
        """The largest ``i`` for which ``R_i`` exists."""
        return max_straight_cut_index(
            self.events, list(range(self.n_processes))
        )

    def all_straight_cuts(self) -> list[CheckpointCut]:
        """Every existing straight cut, ``R_1 .. R_max`` (one grouping)."""
        grouped = self.checkpoint_events()
        ranks = range(self.n_processes)
        return [
            CheckpointCut(members=members)
            for members in zip(*(grouped.get(rank, []) for rank in ranks))
        ]

    def all_straight_cuts_consistent(self) -> bool:
        """True iff every straight cut of this trace is a recovery line.

        This is the executable form of the paper's safety guarantee
        (Theorem 3.2): after Phase III, it must hold on every trace.
        """
        return all(cut_is_consistent(cut) for cut in self.all_straight_cuts())

    def message_count(self) -> int:
        """Number of application messages received in the trace."""
        return sum(1 for e in self.events if e.kind is EventKind.RECV)

    def completion_time(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        return max((e.time for e in self.events), default=0.0)
