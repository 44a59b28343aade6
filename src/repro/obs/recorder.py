"""The flight recorder: a bounded tail of the event log.

Long chaos sweeps emit far more events than anyone wants to archive;
what diagnosis needs is the *recent causal history* leading up to a
failure. The recorder reads the last ``capacity`` events of a run's
log (the bus's own list) and dumps them as JSONL on demand — the chaos
harness writes this dump next to every ddmin-shrunk counterexample, so
a failing schedule always ships with the event log that explains it.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.events import ObsEvent


class FlightRecorder:
    """The most recent ``capacity`` events of *log*, a list kept elsewhere."""

    def __init__(self, log: list[ObsEvent], capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._log = log

    @property
    def dropped(self) -> int:
        """How many events lie before the retained tail."""
        return max(0, len(self._log) - self.capacity)

    def events(self) -> list[ObsEvent]:
        """The retained events, oldest first."""
        return self._log[-self.capacity:]

    def __len__(self) -> int:
        return min(len(self._log), self.capacity)

    def dump(self, path: str | Path) -> Path:
        """Write the retained events to *path* as JSONL; returns it."""
        from repro.obs.export import write_event_log

        return write_event_log(path, self.events())
