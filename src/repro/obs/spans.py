"""Hierarchical wall-clock spans of the offline pipeline and the executor.

A :class:`Span` is one named interval of work with a parent (spans
nest) and a **wall-clock** duration — what the hardware paid. Wall
time is diagnostic, so spans live only on the :class:`SpanTracker` and
reach files solely through the explicitly non-deterministic export
(:meth:`SpanTracker.chrome_trace`, the ``--spans-out`` CLI flags),
never through an event log or any other byte-identity artifact.

Instrumented sites (see ``docs/metrics.md`` for parents and fields):

========================== ==========================================
``phase1.insertion``        Phase I checkpoint insertion
``phase2.matching``         Phase II matching, once, nested in Phase III
``phase3.placement``        Phase III checkpoint motion to Condition 1
``phase4.verification``     Phase IV final Condition 1 check
``cache.lookup``            transform-cache probe (``outcome`` field)
``cell.attempt``            one executor attempt of one campaign cell
``cell``                    a campaign cell submit → final outcome
``campaign.merge``          deterministic merge of all cell results
========================== ==========================================

The simulated-clock counterpart, one ``recovery.attempt`` per recovery
attempt, is not a tracker span: the engine publishes it on its own
event bus as a ``span``-category event carrying simulated times only.

The tracker is zero-cost when absent: every instrumented site holds
``tracker: SpanTracker | None`` and guards with a single ``is None``
test (or receives :data:`NULL_TRACKER`, whose ``span`` context manager
does nothing), mirroring the bus's ``observer=None`` contract.
"""

from __future__ import annotations

import json
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Wall seconds -> Chrome trace microseconds.
_CHROME_US = 1_000_000.0


@dataclass
class Span:
    """One finished (or in-flight) interval of named work.

    Attributes:
        span_id: Tracker-local id, dense from 0 in open order.
        parent_id: Enclosing span's id, or ``None`` for a root.
        name: Span name (dotted, e.g. ``phase3.placement``).
        wall_start / wall_end: ``perf_counter`` readings (seconds).
        fields: Flat JSON-safe payload (``outcome``, ``attempt``, ...).
    """

    span_id: int
    parent_id: int | None
    name: str
    wall_start: float = 0.0
    wall_end: float | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span (0.0 while open)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start


class SpanTracker:
    """Collects nested wall-clock spans.

    ``with tracker.span("phase1.insertion"): ...`` opens a span whose
    parent is the innermost still-open span on this tracker, times it
    on the wall clock, and records it on exit. :meth:`record` adds a
    span whose interval the caller measured itself. *wall_clock*
    replaces ``perf_counter`` (tests pass a fake).
    """

    def __init__(
        self, wall_clock: Callable[[], float] = _time.perf_counter
    ) -> None:
        self._wall = wall_clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _add(self, name: str, wall_start: float, fields: dict) -> Span:
        span = Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            wall_start=wall_start,
            fields=fields,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Span]:
        """Open a nested span; close it on exit, however the block ends.

        The yielded :class:`Span` is live — the block may set
        ``fields`` entries before exit (e.g. record an outcome decided
        mid-span).
        """
        span = self._add(name, self._wall(), fields)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.wall_end = self._wall()

    def record(
        self, name: str, wall_start: float, wall_end: float, **fields: Any
    ) -> Span:
        """Record an already-finished span.

        For work whose lifetime the caller measured itself (e.g. a
        campaign cell that ran on a pool worker — its wall interval is
        known only at completion, and concurrent cells cannot nest).
        The span parents under the innermost open span.
        """
        span = self._add(name, wall_start, fields)
        span.wall_end = wall_end
        return span

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event document of the recorded spans.

        Spans become complete events (``ph: "X"``) on one "driver"
        thread. Timestamps come from the wall clock, zeroed at the
        first span's start, so this export is diagnostic (never
        byte-identical across runs).
        """
        origin = min(
            (span.wall_start for span in self.spans), default=0.0
        )
        events: list[dict[str, Any]] = []
        for span in self.spans:
            args: dict[str, Any] = dict(span.fields)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            events.append({
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.wall_start - origin) * _CHROME_US,
                "dur": span.wall_duration * _CHROME_US,
                "pid": 0,
                "tid": -1,
                "args": args,
            })
        return chrome_document(events, set(), "driver")

    def chrome_trace_json(self, indent: int | None = None) -> str:
        """:meth:`chrome_trace` serialised as JSON text."""
        return json.dumps(self.chrome_trace(), indent=indent, sort_keys=True)


def chrome_document(
    events: list[dict[str, Any]], ranks: set[int], rankless: str
) -> dict[str, Any]:
    """A Chrome trace-event document of *events*.

    A thread-name record labels each of *ranks* ``P<rank>`` and, when an
    event sits on thread ``-1``, names that thread *rankless*.
    """
    threads = [(rank, f"P{rank}") for rank in sorted(ranks)]
    if any(event["tid"] == -1 for event in events):
        threads.append((-1, rankless))
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
         "args": {"name": name}}
        for tid, name in threads
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


class _NullTracker:
    """The do-nothing tracker: ``span`` costs one method call.

    Instrumented code paths that would otherwise pepper themselves with
    ``if tracker is not None`` can take :data:`NULL_TRACKER` as their
    default and call ``tracker.span(...)`` unconditionally.
    """

    __slots__ = ()

    @contextmanager
    def span(self, name, **fields):
        yield Span(span_id=-1, parent_id=None, name=name)


#: Shared no-op tracker for uninstrumented runs.
NULL_TRACKER = _NullTracker()
