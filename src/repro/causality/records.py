"""Event records of an execution (the "local histories" of §2).

The simulator produces one :class:`TraceEvent` per computation, send,
receive, checkpoint, failure, or restart event. Records carry the
simulation time, the process's vector clock *after* the event, and
event-specific payload fields. They are immutable so traces can be
shared freely between analyses, and one tuple each, so the engine
builds one per event with a single allocation.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.causality.vector_clock import VectorClock


class EventKind(enum.Enum):
    """The event alphabet of the system model (§2) plus fault events."""

    COMPUTE = "compute"
    SEND = "send"
    RECV = "recv"
    CHECKPOINT = "checkpoint"
    FAILURE = "failure"
    RESTART = "restart"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TraceEvent(NamedTuple):
    """One event in a process's local history.

    Attributes:
        kind: The event type.
        process: Rank of the process the event occurred in.
        seq: Position in the process's local history (0-based).
        time: Simulation time at which the event completed.
        clock: The process's vector clock after the event.
        message_id: For SEND/RECV, the unique message id.
        peer: For SEND the destination rank, for RECV the source rank.
        checkpoint_number: For CHECKPOINT, the per-process dynamic
            sequence number (1-based), i.e. "the *i*-th checkpoint of
            process p" in the paper's ``C_{p,i}`` notation.
        stmt_id: For CHECKPOINT, the AST node id of the originating
            checkpoint statement (links executions back to the CFG's
            ``C_i`` nodes).
    """

    kind: EventKind
    process: int
    seq: int
    time: float
    clock: VectorClock
    message_id: int | None = None
    peer: int | None = None
    checkpoint_number: int | None = None
    stmt_id: int | None = None

    def __repr__(self) -> str:
        extra = ""
        if self.kind in (EventKind.SEND, EventKind.RECV):
            extra = f" m{self.message_id} peer={self.peer}"
        elif self.kind is EventKind.CHECKPOINT:
            extra = f" #{self.checkpoint_number}"
        return f"<P{self.process}.{self.seq} {self.kind}{extra} t={self.time:.3f}>"
