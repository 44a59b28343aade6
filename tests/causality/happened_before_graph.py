"""The explicit happened-before graph, kept as a test oracle.

``repro.causality.happened_before`` answers by vector clocks; this
graph builds the relation from first principles — process order plus
send→receive pairs — and answers by reachability. The two must agree
on every event pair of a simulated trace (``test_happened_before.py``),
which validates the engine's clock maintenance end to end.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.causality.records import EventKind, TraceEvent


class HappenedBeforeGraph:
    """Explicit happened-before graph built from first principles.

    Edges: consecutive events of the same process, and the send event
    of each message to its receive event. Queries are DFS reachability;
    quadratic, fine for test-sized traces.
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self._events = list(events)
        self._succ: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        per_process: dict[int, list[TraceEvent]] = defaultdict(list)
        sends: dict[int, TraceEvent] = {}
        receives: dict[int, TraceEvent] = {}
        for event in self._events:
            per_process[event.process].append(event)
            if event.kind is EventKind.SEND and event.message_id is not None:
                sends[event.message_id] = event
            elif event.kind is EventKind.RECV and event.message_id is not None:
                receives[event.message_id] = event
        for history in per_process.values():
            history.sort(key=lambda e: e.seq)
            for first, second in zip(history, history[1:]):
                self._succ[self._key(first)].append(self._key(second))
        for message_id, send in sends.items():
            recv = receives.get(message_id)
            if recv is not None:
                self._succ[self._key(send)].append(self._key(recv))

    @staticmethod
    def _key(event: TraceEvent) -> tuple[int, int]:
        return (event.process, event.seq)

    def reaches(self, a: TraceEvent, b: TraceEvent) -> bool:
        """True iff *a* happened before *b* by explicit reachability."""
        target = self._key(b)
        start = self._key(a)
        if start == target:
            return False
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for nxt in self._succ.get(current, ()):
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False
