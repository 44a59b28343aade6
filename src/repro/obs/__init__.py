"""Observability: causal tracing and metrics for the whole runtime.

Every runtime layer — the engine's effects/checkpoints/rollbacks, the
reliable transport's frames and ACKs, the checkpoint store's commits
and faults, and the protocols' control traffic — publishes structured
events onto one :class:`~repro.obs.bus.EventBus`. Each event is stamped
with simulated time, rank, and the publishing process's **vector
clock**, so happened-before is recoverable from the event log alone:
the log is a causal trace, not just a message log.

On top of the bus sit:

- a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  histograms (checkpoint latency, recovery-line lag, retransmit rate,
  rollback depth), folded from the log by a
  :class:`~repro.obs.metrics.MetricsCollector`;
- a :class:`~repro.obs.recorder.FlightRecorder`, the log's bounded
  tail, which the chaos harness dumps next to ddmin counterexamples;
- exporters to JSONL and Chrome ``chrome://tracing`` trace-event format
  (:mod:`repro.obs.export`), with a schema-versioned log header;
- hierarchical wall-clock :mod:`spans <repro.obs.spans>` over the
  transform phases and campaign cells (recovery attempts are
  sim-clock ``span`` events on the bus);
- campaign-scale :mod:`rollups <repro.obs.rollup>` (mergeable metrics,
  deterministic aggregate), a :mod:`diff engine <repro.obs.diff>` for
  regression gating, :mod:`event queries <repro.obs.query>`, and
  :mod:`live progress <repro.obs.progress>` streaming.

The subsystem is zero-cost when disabled (``observer=None`` leaves
every hot path a single ``is None`` test away from the status quo) and
fully deterministic: events carry simulated time only, so byte-identical
replays produce byte-identical JSONL logs.
"""

from repro.obs.bus import EventBus
from repro.obs.diff import (
    DiffReport,
    MetricDelta,
    Threshold,
    diff_metrics,
    flatten_metrics,
    format_diff,
)
from repro.obs.events import CATEGORIES, ObsEvent
from repro.obs.export import (
    EVENT_LOG_SCHEMA_VERSION,
    SchemaVersionError,
    chrome_trace,
    chrome_trace_json,
    event_log_header,
    events_to_jsonl,
    read_event_log,
    summarize_events,
    trace_from_events,
    write_event_log,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
)
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.query import filter_events
from repro.obs.recorder import FlightRecorder
from repro.obs.rollup import (
    campaign_rollup,
    merge_registries,
    rollup_to_json,
)
from repro.obs.spans import NULL_TRACKER, Span, SpanTracker


class Observability:
    """Convenience bundle: the bus's event log, its tail, and its metrics.

    Pass ``.bus`` as the ``observer`` argument of
    :class:`~repro.runtime.engine.Simulation`; afterwards ``.events`` is
    the full event log (the bus's own list), ``.recorder`` reads its
    bounded tail, and ``.metrics`` is the aggregated registry.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.bus = EventBus()
        self.events = self.bus.events
        self.recorder = FlightRecorder(self.events, capacity)
        self._collector = MetricsCollector(MetricsRegistry())
        self._folded = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry, with every event logged so far folded in.

        A read folds the part of the log no earlier read has, so each
        event is folded once. A metric name taken by another type of
        metric raises ``TypeError`` here.
        """
        start, self._folded = self._folded, len(self.events)
        if start < self._folded:
            self._collector.feed(self.events[start:self._folded])
        return self._collector.registry

    def jsonl(self) -> str:
        """The full event log serialised as JSONL."""
        return events_to_jsonl(self.events)


__all__ = [
    "CATEGORIES",
    "Counter",
    "DiffReport",
    "EVENT_LOG_SCHEMA_VERSION",
    "EventBus",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricsCollector",
    "MetricsRegistry",
    "NULL_TRACKER",
    "ObsEvent",
    "Observability",
    "ProgressEvent",
    "ProgressReporter",
    "SchemaVersionError",
    "Span",
    "SpanTracker",
    "Threshold",
    "campaign_rollup",
    "chrome_trace",
    "chrome_trace_json",
    "diff_metrics",
    "event_log_header",
    "events_to_jsonl",
    "filter_events",
    "flatten_metrics",
    "format_diff",
    "merge_registries",
    "read_event_log",
    "rollup_to_json",
    "summarize_events",
    "trace_from_events",
    "write_event_log",
]
