"""Metrics: counters, gauges, histograms, and the event-fed collector.

The registry is deliberately simulation-grade: deterministic (no
wall-clock, no sampling), allocation-light, and serialisable to plain
JSON for benchmarks and CI. :class:`MetricsCollector` folds the event
log an :class:`~repro.obs.bus.EventBus` keeps — live, or parsed back
from JSONL — and derives the standard checkpoint metrics from it alone:

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
  events; the same figure ``CheckpointStore.total_bytes(incremental=True)``
  sums — a structural size, pinned equal to the encoder's output;
- ``storage_retries_total`` / ``gc_collected_total`` /
  ``gc_reclaimed_bytes_total`` — write-retry and retention-GC counters;
- ``recovery_retries_total`` / ``recovery_backoff`` /
  ``unrecoverable_total`` — recovery-supervisor retry accounting.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import add
from typing import Any, Iterable

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

    def observe_all(self, values: list[float]) -> None:
        """Record *values* in order, as :meth:`observe` once per value.

        The sum stays a left-to-right float addition: ``sum()`` is
        compensated on Python 3.12+ and would round differently.
        """
        if values:
            self.count += len(values)
            self.total = reduce(add, values, self.total)
            self.min = min(values if self.min is None else (self.min, *values))
            self.max = max(values if self.max is None else (self.max, *values))

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


class MetricsCollector:
    """Folds batches of the event log into the standard metrics.

    :meth:`feed` groups a batch by ``(category, name)`` kind. A kind is
    resolved once, at its first event, into the two counters it bumps
    and its handler (``None`` for a kind that is only counted); a group
    bumps both by its size and runs its handler over its events in
    order. Kinds update disjoint metrics (``events_total`` only adds),
    so a stream fed in any batches reads as an event-by-event fold at
    every batch boundary — which names exist included, as a handler
    creates each metric at the event that first needs it.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._kinds: dict[tuple[str, str], tuple] = {}

    def feed(self, events: Iterable[ObsEvent]) -> None:
        """Fold *events*, the next batch of the log, into the registry."""
        groups: defaultdict[tuple[str, str], list] = defaultdict(list)
        for event in events:
            groups[event.category, event.name].append(event)
        for kind, group in groups.items():
            entry = self._kinds.get(kind)
            if entry is None:
                entry = self._resolve(*kind)
            total, counter, handler = entry
            total.value += len(group)
            counter.value += len(group)
            if handler is not None:
                handler(group)

    def _resolve(self, category: str, name: str) -> tuple:
        reg = self.registry
        total = reg.counter("events_total")
        counter = reg.counter(f"{category}.{name}")
        if category == "span":
            # Simulated duration distribution per span name.
            handler = _observe(reg.histogram(f"span.{name}.sim_dur"), "dur")
        else:
            factory = _HANDLERS.get((category, name))
            handler = factory(reg) if factory is not None else None
        kind = self._kinds[category, name] = (total, counter, handler)
        return kind


def _values(events, field: str, default) -> list:
    return [event.fields.get(field, default) for event in events]


def _observe(histogram: Histogram, field: str):
    observe = histogram.observe_all
    return lambda events: observe([*map(float, _values(events, field, 0.0))])


def _on_commit(reg: MetricsRegistry):
    # Durable wire size of the payload just committed (delta entries
    # report their delta record, not the full state): a gauge of the
    # most recent value plus a distribution across the run.
    latest = reg.gauge("snapshot_bytes")
    sizes = reg.histogram("snapshot_bytes_dist")

    def handler(events):
        retries = sum(_values(events, "retries", 0))
        if retries:
            reg.counter("storage_retries_total").inc(retries)
        values = [*map(float, _values(events, "bytes", 0))]
        latest.value = values[-1]
        sizes.observe_all(values)
    return handler


def _on_gc(reg: MetricsRegistry):
    collected = reg.counter("gc_collected_total")
    reclaimed = reg.counter("gc_reclaimed_bytes_total")

    def handler(events):
        collected.inc(len(events))
        reclaimed.inc(sum(map(int, _values(events, "bytes", 0))))
    return handler


def _on_occupancy(reg: MetricsRegistry):
    count, size = reg.gauge("storage_checkpoints"), reg.gauge("storage_bytes")

    def handler(events):
        # Gauges: the batch's last event wins.
        fields = events[-1].fields
        count.value = float(fields.get("count", 0))
        size.value = float(fields.get("bytes", 0))
    return handler


def _on_recovery_retry(reg: MetricsRegistry):
    retries = reg.counter("recovery_retries_total")
    backoff = _observe(reg.histogram("recovery_backoff"), "backoff")

    def handler(events):
        retries.inc(len(events))
        backoff(events)
    return handler


def _on_unrecoverable(reg: MetricsRegistry):
    counter = reg.counter("unrecoverable_total")
    return lambda events: counter.inc(len(events))


def _on_checkpoint(reg: MetricsRegistry):
    last_time: dict[int, float] = {}
    numbers: dict[int, int] = {}
    latency = lag = None

    def handler(events):
        nonlocal latency, lag
        gaps = []
        for event in events:
            rank = event.rank
            if rank is None:
                continue
            # float(): a live event may carry an int time, a replayed
            # one never does — the registries must not differ by that.
            now = float(event.time)
            previous = last_time.get(rank)
            if previous is not None:
                gaps.append(now - previous)
            last_time[rank] = now
            number = event.fields.get("checkpoint_number")
            if number is not None:
                numbers[rank] = number
        if gaps:
            if latency is None:
                latency = reg.histogram("checkpoint_latency")
            latency.observe_all(gaps)
        if numbers:  # a batch that set no number recomputes the same lag
            if lag is None:
                lag = reg.gauge("recovery_line_lag")
            lag.value = max(numbers.values()) - min(numbers.values())
    return handler


def _on_frame(reg: MetricsRegistry):
    frames = reg.counter("frames_total")
    retransmits = reg.counter("retransmits_total")
    rate = reg.gauge("retransmit_rate")

    def handler(events):
        frames.value += len(events)
        retransmits.value += sum(
            [attempt > 1 for attempt in _values(events, "attempt", 1)]
        )
        rate.value = retransmits.value / frames.value
    return handler


#: Handler factory per kind; a kind not listed (and not a span) is only
#: counted. Each takes the registry and returns ``handler(events)``,
#: which folds one kind's events of one batch, in order.
_HANDLERS = {
    ("storage", "commit"): _on_commit,
    ("storage", "gc"): _on_gc,
    ("storage", "occupancy"): _on_occupancy,
    ("engine", "recovery-retry"): _on_recovery_retry,
    ("engine", "unrecoverable"): _on_unrecoverable,
    ("engine", "checkpoint"): _on_checkpoint,
    ("transport", "frame"): _on_frame,
    ("protocol", "recovery"): lambda reg: _observe(
        reg.histogram("rollback_depth"), "depth"
    ),
}
