"""The event bus every runtime layer publishes to.

A deliberately tiny synchronous pub/sub hub. Publishers call
:meth:`EventBus.emit`; subscribers are plain callables invoked in
subscription order. The engine binds its live vector-clock array once
(:meth:`EventBus.bind_clocks`), after which every ranked event is
automatically stamped with the publisher's current vector clock —
transport and storage stay ignorant of causality metadata entirely.

Zero-cost-when-disabled is achieved one level up: layers hold
``observer: EventBus | None`` and guard each emission with a single
``is None`` test, so a disabled run executes no observability code at
all beyond that test.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.events import ObsEvent


class EventBus:
    """Synchronous dispatch of :class:`~repro.obs.events.ObsEvent`."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[ObsEvent], None]] = []
        self._clocks: list | None = None
        self._seq = 0

    def subscribe(self, handler: Callable[[ObsEvent], None]) -> None:
        """Register *handler* to receive every subsequent event."""
        self._subscribers.append(handler)

    def bind_clocks(self, clocks: list) -> None:
        """Bind the engine's live per-rank vector-clock array.

        The list is shared, not copied — the engine mutates it in
        place, so reading ``clocks[rank]`` at emission time yields the
        publisher's *current* clock.
        """
        self._clocks = clocks

    @property
    def events_emitted(self) -> int:
        """Total events emitted on this bus so far."""
        return self._seq

    def emit(
        self,
        category: str,
        name: str,
        rank: int | None,
        time: float,
        clock: tuple[int, ...] | None = None,
        **fields: Any,
    ) -> ObsEvent:
        """Publish one event to every subscriber and return it.

        When *clock* is omitted but *rank* is given and the engine has
        bound its clock array, the event is stamped with that rank's
        current vector clock.
        """
        if clock is None and rank is not None and self._clocks is not None:
            if 0 <= rank < len(self._clocks):
                clock = self._clocks[rank].components
        return self._publish(category, name, rank, time, clock, fields)

    def _publish(self, category, name, rank, time, clock, fields) -> ObsEvent:
        # Build the frozen event through __dict__ directly: the
        # generated frozen __init__ (object.__setattr__ per field)
        # costs ~3x this path.
        event = ObsEvent.__new__(ObsEvent)
        event.__dict__.update(
            seq=self._seq,
            category=category,
            name=name,
            rank=rank,
            time=time,
            clock=clock,
            fields=fields,
        )
        self._seq += 1
        for handler in self._subscribers:
            handler(event)
        return event

    def emit_trace_event(self, trace_event) -> ObsEvent:
        """Publish an engine :class:`~repro.causality.records.TraceEvent`.

        Called by :class:`~repro.runtime.trace.ExecutionTrace` on every
        append, so the engine's entire event stream (sends, receives,
        checkpoints, failures, restarts) reaches the bus with exactly
        the payload the causality analyses see — including the local
        sequence number needed to rebuild the trace from the log.
        """
        fields: dict[str, Any] = {"lseq": trace_event.seq}
        if trace_event.message_id is not None:
            fields["message_id"] = trace_event.message_id
        if trace_event.peer is not None:
            fields["peer"] = trace_event.peer
        if trace_event.checkpoint_number is not None:
            fields["checkpoint_number"] = trace_event.checkpoint_number
        if trace_event.stmt_id is not None:
            fields["stmt_id"] = trace_event.stmt_id
        return self._publish(
            "engine",
            trace_event.kind._value_,  # .value is a Python-level descriptor
            trace_event.process,
            trace_event.time,
            trace_event.clock.components,
            fields,
        )
