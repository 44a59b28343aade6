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
  rollback depth), fed by a :class:`~repro.obs.metrics.MetricsCollector`;
- a bounded :class:`~repro.obs.recorder.FlightRecorder` the chaos
  harness dumps automatically next to ddmin counterexamples;
- exporters to JSONL and Chrome ``chrome://tracing`` trace-event format
  (:mod:`repro.obs.export`), with a schema-versioned log header;
- hierarchical :mod:`spans <repro.obs.spans>` (wall + simulated clock)
  over the transform phases, recovery attempts, and campaign cells;
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
    chaos_rollup,
    merge_registries,
    rollup_to_json,
)
from repro.obs.spans import NULL_TRACKER, Span, SpanTracker


class Observability:
    """Convenience bundle: bus + event log + flight recorder + metrics.

    Wires the standard subscribers onto a fresh bus. Pass ``.bus`` as
    the ``observer`` argument of
    :class:`~repro.runtime.engine.Simulation`; afterwards ``.events``
    holds the full event log, ``.recorder`` the bounded tail, and
    ``.metrics`` the aggregated registry.
    """

    def __init__(
        self, capacity: int = 4096, keep_events: bool = True
    ) -> None:
        self.bus = EventBus()
        self.events: list[ObsEvent] = []
        if keep_events:
            self.bus.subscribe(self.events.append)
            self.recorder = FlightRecorder(capacity, log=self.events)
        else:
            self.recorder = FlightRecorder(capacity)
            self.recorder.attach(self.bus)
        self.metrics = MetricsRegistry()
        self.collector = MetricsCollector(self.metrics)
        self.collector.attach(self.bus)

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
    "chaos_rollup",
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
