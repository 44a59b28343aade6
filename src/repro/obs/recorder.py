"""The flight recorder: a bounded tail of the event stream.

Long chaos sweeps emit far more events than anyone wants to archive;
what diagnosis needs is the *recent causal history* leading up to a
failure. The recorder keeps the last ``capacity`` events (in a ring
buffer, or as the tail of a full log) and dumps them as JSONL on
demand — the chaos harness writes this dump next to every ddmin-shrunk
counterexample, so a failing schedule always ships with the event log
that explains it.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from repro.obs.events import ObsEvent


class FlightRecorder:
    """The most recent ``capacity`` events: a ring, or a list's tail.

    A recorder given the full event list somebody else already keeps
    (*log*) reads its tail from that list and is not attached to the
    bus; one without keeps a ring buffer of what :meth:`record` sees.
    """

    def __init__(
        self, capacity: int = 4096, log: list[ObsEvent] | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._log = log
        self._ring: deque[ObsEvent] = deque(maxlen=capacity)
        self._recorded = 0

    def attach(self, bus) -> None:
        """Subscribe this recorder to *bus*."""
        bus.subscribe(self.record)

    def record(self, event: ObsEvent) -> None:
        """Append *event*, evicting the oldest at capacity."""
        self._recorded += 1
        self._ring.append(event)

    def _seen(self) -> int:
        return self._recorded if self._log is None else len(self._log)

    @property
    def dropped(self) -> int:
        """How many events have been evicted so far."""
        return max(0, self._seen() - self.capacity)

    def events(self) -> list[ObsEvent]:
        """The retained events, oldest first."""
        if self._log is None:
            return list(self._ring)
        return self._log[-self.capacity:]

    def __len__(self) -> int:
        return min(self._seen(), self.capacity)

    def dump(self, path: str | Path) -> Path:
        """Write the retained events to *path* as JSONL; returns it."""
        from repro.obs.export import events_to_jsonl

        path = Path(path)
        path.write_text(events_to_jsonl(self.events()))
        return path
