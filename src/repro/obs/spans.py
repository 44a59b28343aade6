"""Hierarchical spans: durations with both a wall clock and a sim clock.

A :class:`Span` is one named interval of work with a parent (spans
nest), an optional rank, a **wall-clock** duration (what the hardware
paid) and, where the work happens inside the simulator, a
**simulated-clock** duration (what the model paid). The two clocks
serve different masters and are kept strictly apart:

- simulated durations are deterministic, so span events published on an
  :class:`~repro.obs.bus.EventBus` carry *only* sim times and are safe
  inside byte-identity artifacts (campaign event logs, flight-recorder
  dumps);
- wall durations are diagnostic, live only on the
  :class:`SpanTracker`, and reach files solely through the explicitly
  non-deterministic exports (``SpanTracker.chrome_trace``, the
  ``--spans-out`` CLI flags).

Instrumented sites (see ``docs/metrics.md`` for the full catalogue):

========================== ==========================================
``phase1.insertion``        Phase I checkpoint insertion
``phase2.matching``         Phase II matching, once, nested in Phase III
``phase3.placement``        Phase III checkpoint motion to Condition 1
``phase4.verification``     Phase IV final Condition 1 check
``cache.lookup``            transform-cache probe (``outcome`` field)
``recovery.attempt``        one RecoverySupervisor attempt (sim clock)
``cell.attempt``            one executor attempt of one campaign cell
``cell``                    a campaign cell submit → final outcome
``campaign.merge``          deterministic merge of all cell results
========================== ==========================================

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
        rank: Publishing process where one exists, else ``None``.
        wall_start / wall_end: ``perf_counter`` readings (seconds).
        sim_start / sim_end: Simulated times, or ``None`` for offline
            work that has no simulated clock.
        fields: Flat JSON-safe payload (``outcome``, ``attempt``, ...).
    """

    span_id: int
    parent_id: int | None
    name: str
    rank: int | None = None
    wall_start: float = 0.0
    wall_end: float | None = None
    sim_start: float | None = None
    sim_end: float | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span (0.0 while open)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> float | None:
        """Simulated seconds covered, or ``None`` for offline spans."""
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start


class SpanTracker:
    """Collects nested spans; optionally publishes them as events.

    ``with tracker.span("phase1.insertion"): ...`` opens a span whose
    parent is the innermost still-open span on this tracker, times it
    on the wall clock, and records it on close. Simulated times are
    supplied explicitly by the caller (``sim_start=``/``sim_end=``)
    because only the engine knows them.

    With *bus* attached, every closed span is also published as an
    :class:`~repro.obs.events.ObsEvent` of category ``"span"`` carrying
    **simulated times only** (``t`` = sim start or 0.0, ``dur`` = sim
    duration or 0.0) plus the span/parent ids — never wall clock, so
    logs stay deterministic. Wall durations are read back from
    :attr:`spans`, :meth:`wall_totals`, or :meth:`chrome_trace`.
    """

    def __init__(
        self,
        bus=None,
        wall_clock: Callable[[], float] = _time.perf_counter,
    ) -> None:
        self.bus = bus
        self._wall = wall_clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(
        self,
        name: str,
        rank: int | None = None,
        sim_start: float | None = None,
        sim_end: float | None = None,
        **fields: Any,
    ) -> Iterator[Span]:
        """Open a nested span; close and record it on exit.

        The yielded :class:`Span` is live — handlers may set
        ``fields`` entries or ``sim_start``/``sim_end`` before exit
        (e.g. record an outcome decided mid-span).
        """
        span = self.open(
            name, rank=rank, sim_start=sim_start, sim_end=sim_end, **fields
        )
        try:
            yield span
        finally:
            self.close(span)

    def open(
        self,
        name: str,
        rank: int | None = None,
        sim_start: float | None = None,
        sim_end: float | None = None,
        **fields: Any,
    ) -> Span:
        """Explicitly open a span (for non-lexical lifetimes)."""
        span = Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            rank=rank,
            wall_start=self._wall(),
            sim_start=sim_start,
            sim_end=sim_end,
            fields=dict(fields),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> Span:
        """Close *span* (and any unclosed children), publish if bound."""
        while self._stack:
            top = self._stack.pop()
            if top.wall_end is None:
                top.wall_end = self._wall()
            if top is span:
                break
        else:
            if span.wall_end is None:
                span.wall_end = self._wall()
        self._publish(span)
        return span

    def _publish(self, span: Span) -> None:
        """Emit a closed span on the bus (sim times only), if bound."""
        if self.bus is None:
            return
        self.bus.emit(
            "span",
            span.name,
            span.rank,
            span.sim_start if span.sim_start is not None else 0.0,
            span_id=span.span_id,
            parent=span.parent_id,
            dur=(
                span.sim_duration if span.sim_duration is not None else 0.0
            ),
            **span.fields,
        )

    def record(
        self,
        name: str,
        wall_start: float,
        wall_end: float,
        rank: int | None = None,
        sim_start: float | None = None,
        sim_end: float | None = None,
        **fields: Any,
    ) -> Span:
        """Record an already-finished span without touching the stack.

        For work whose lifetime the caller measured itself (e.g. a
        campaign cell that ran on a pool worker — its wall interval is
        known only at completion, and concurrent cells cannot nest).
        The span parents under the innermost open span, is published on
        the bus like any closed span, and never interferes with
        lexically-scoped ``span()`` nesting.
        """
        span = Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            rank=rank,
            wall_start=wall_start,
            wall_end=wall_end,
            sim_start=sim_start,
            sim_end=sim_end,
            fields=dict(fields),
        )
        self.spans.append(span)
        self._publish(span)
        return span

    def wall_totals(self) -> dict[str, float]:
        """Total wall seconds per span name, sorted by name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.wall_duration
            )
        return dict(sorted(totals.items()))

    def by_name(self, name: str) -> list[Span]:
        """Every recorded span called *name*, in open order."""
        return [span for span in self.spans if span.name == name]

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event document of the recorded spans.

        Spans become complete events (``ph: "X"``). Timestamps come
        from the *wall* clock, zeroed at the first span's start, so
        this export is diagnostic (never byte-identical across runs) —
        the deterministic route for spans is the event log plus
        ``repro trace chrome``. Each rank gets its own thread; rankless
        spans land on a "driver" thread.
        """
        events: list[dict[str, Any]] = []
        origin = min(
            (span.wall_start for span in self.spans), default=0.0
        )
        ranks: set[int] = set()
        for span in self.spans:
            tid = span.rank if span.rank is not None else -1
            if span.rank is not None:
                ranks.add(span.rank)
            args: dict[str, Any] = dict(span.fields)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            if span.sim_duration is not None:
                args["sim_dur"] = span.sim_duration
            events.append({
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.wall_start - origin) * _CHROME_US,
                "dur": span.wall_duration * _CHROME_US,
                "pid": 0,
                "tid": tid,
                "args": args,
            })
        metadata: list[dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"P{rank}"},
            }
            for rank in sorted(ranks)
        ]
        if any(event["tid"] == -1 for event in events):
            metadata.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": -1,
                "args": {"name": "driver"},
            })
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
        }

    def chrome_trace_json(self, indent: int | None = None) -> str:
        """:meth:`chrome_trace` serialised as JSON text."""
        return json.dumps(self.chrome_trace(), indent=indent, sort_keys=True)


class _NullTracker:
    """The do-nothing tracker: ``span`` costs one method call.

    Instrumented code paths that would otherwise pepper themselves with
    ``if tracker is not None`` can take :data:`NULL_TRACKER` as their
    default and call ``tracker.span(...)`` unconditionally.
    """

    __slots__ = ()

    @contextmanager
    def span(self, name, rank=None, sim_start=None, sim_end=None, **fields):
        yield Span(span_id=-1, parent_id=None, name=name)

    def open(self, name, rank=None, sim_start=None, sim_end=None, **fields):
        return Span(span_id=-1, parent_id=None, name=name)

    def close(self, span):
        return span

    def record(self, name, wall_start, wall_end, rank=None,
               sim_start=None, sim_end=None, **fields):
        return Span(span_id=-1, parent_id=None, name=name)


#: Shared no-op tracker for uninstrumented runs.
NULL_TRACKER = _NullTracker()
