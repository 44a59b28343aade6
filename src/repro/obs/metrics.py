"""Metrics: counters, gauges, histograms, and the event-fed collector.

The registry is deliberately simulation-grade: deterministic (no
wall-clock, no sampling), allocation-light, and serialisable to plain
JSON for benchmarks and CI. :class:`MetricsCollector` subscribes to an
:class:`~repro.obs.bus.EventBus` and derives the standard checkpoint
metrics from the event stream alone:

- ``checkpoints_total`` / per-category event counters;
- ``checkpoint_latency`` — histogram of per-rank gaps between
  consecutive checkpoint completions;
- ``recovery_line_lag`` — gauge of ``i_max − i_consistent``, the
  spread between the most advanced rank's checkpoint number and the
  deepest number all ranks share (the straight cut usable for
  recovery right now);
- ``retransmit_rate`` — retransmissions per data frame put on the wire;
- ``rollback_depth`` — histogram of degraded-recovery fallback depths;
- ``storage_checkpoints`` / ``storage_bytes`` — occupancy gauges from
  the end-of-run storage event;
- ``snapshot_bytes`` / ``snapshot_bytes_dist`` — durable wire size of
  the most recently committed checkpoint payload (gauge) and its
  distribution over the run (histogram), fed by storage ``commit``
  events; the same figure ``StableStorage.total_bytes(incremental=True)``
  sums — a structural size, pinned equal to the encoder's output;
- ``storage_retries_total`` / ``gc_collected_total`` /
  ``gc_reclaimed_bytes_total`` — write-retry and retention-GC counters;
- ``recovery_retries_total`` / ``recovery_backoff`` /
  ``unrecoverable_total`` — recovery-supervisor retry accounting.

The resilient campaign executor publishes its own counters here too
(via :meth:`~repro.campaign.executor.ExecutorStats.publish`):
``executor.worker_restarts`` / ``.retries`` / ``.timeouts`` /
``.quarantines`` / ``.resume_hits`` / ``.journal_torn_entries`` — the
harness's checkpoint/restart machinery accounted for with the same
registry the simulated system uses.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.events import ObsEvent


class Counter:
    """A monotonically increasing integer."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can move both ways (last write wins)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of a distribution (count/sum/min/max/mean).

    Constant memory by construction — no reservoir, no buckets — so
    recording is O(1) and the summary is deterministic.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name* (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name* (created on first use)."""
        return self._get(name, Histogram)

    def as_dict(self) -> dict[str, Any]:
        """Every metric, keyed by name, in sorted order."""
        return {
            name: self._metrics[name].as_dict()
            for name in sorted(self._metrics)
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The registry serialised as a JSON object."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


class MetricsCollector:
    """Derives the standard metrics from the bus's event stream."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._last_checkpoint_time: dict[int, float] = {}
        self._checkpoint_numbers: dict[int, int] = {}

    def attach(self, bus) -> None:
        """Subscribe this collector to *bus*."""
        bus.subscribe(self.on_event)

    def on_event(self, event: ObsEvent) -> None:
        """Fold one event into the registry."""
        reg = self.registry
        reg.counter("events_total").inc()
        reg.counter(f"{event.category}.{event.name}").inc()
        if event.category == "engine":
            self._on_engine(event)
        elif event.category == "transport":
            self._on_transport(event)
        elif event.category == "protocol":
            self._on_protocol(event)
        elif event.category == "storage":
            self._on_storage(event)
        elif event.category == "span":
            # Simulated duration distribution per span name.
            self.registry.histogram(f"span.{event.name}.sim_dur").observe(
                float(event.fields.get("dur", 0.0))
            )

    def _on_storage(self, event: ObsEvent) -> None:
        if event.name == "commit":
            retries = event.fields.get("retries", 0)
            if retries:
                self.registry.counter("storage_retries_total").inc(retries)
            # Durable wire size of the payload just committed (delta
            # entries report their delta record, not the full state):
            # a gauge of the most recent value plus a distribution
            # across the run.
            size = float(event.fields.get("bytes", 0))
            self.registry.gauge("snapshot_bytes").set(size)
            self.registry.histogram("snapshot_bytes_dist").observe(size)
        elif event.name == "gc":
            self.registry.counter("gc_collected_total").inc()
            self.registry.counter("gc_reclaimed_bytes_total").inc(
                int(event.fields.get("bytes", 0))
            )
        elif event.name == "occupancy":
            self.registry.gauge("storage_checkpoints").set(
                float(event.fields.get("count", 0))
            )
            self.registry.gauge("storage_bytes").set(
                float(event.fields.get("bytes", 0))
            )

    def _on_engine(self, event: ObsEvent) -> None:
        if event.name == "recovery-retry":
            self.registry.counter("recovery_retries_total").inc()
            self.registry.histogram("recovery_backoff").observe(
                float(event.fields.get("backoff", 0.0))
            )
            return
        if event.name == "unrecoverable":
            self.registry.counter("unrecoverable_total").inc()
            return
        if event.name == "checkpoint" and event.rank is not None:
            # float(): a live event may carry an int time, a replayed
            # one never does — the registries must not differ by that.
            now = float(event.time)
            previous = self._last_checkpoint_time.get(event.rank)
            if previous is not None:
                self.registry.histogram("checkpoint_latency").observe(
                    now - previous
                )
            self._last_checkpoint_time[event.rank] = now
            number = event.fields.get("checkpoint_number")
            if number is not None:
                self._checkpoint_numbers[event.rank] = number
                numbers = self._checkpoint_numbers.values()
                self.registry.gauge("recovery_line_lag").set(
                    max(numbers) - min(numbers)
                )

    def _on_transport(self, event: ObsEvent) -> None:
        if event.name != "frame":
            return
        frames = self.registry.counter("frames_total")
        frames.inc()
        retx = self.registry.counter("retransmits_total")
        if event.fields.get("attempt", 1) > 1:
            retx.inc()
        self.registry.gauge("retransmit_rate").set(
            retx.value / frames.value
        )

    def _on_protocol(self, event: ObsEvent) -> None:
        if event.name == "recovery":
            self.registry.histogram("rollback_depth").observe(
                float(event.fields.get("depth", 0))
            )
