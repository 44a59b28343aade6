"""The lookup-per-event metrics collector, kept as a test oracle.

This is ``repro.obs.metrics.MetricsCollector`` as it stood before a
``(category, name)`` kind was resolved once into its counter and its
handler: every event formats its counter's name, goes through the
registry for each metric it touches and walks an ``if`` / ``elif`` chain
over the categories. It defines what a registry holds after any event
stream — values, number types and which names exist at all — and the
collector must agree with it (``test_collector_oracle.py``).
"""

from __future__ import annotations

from repro.obs.events import ObsEvent
from repro.obs.metrics import MetricsRegistry


class ReferenceCollector:
    """``MetricsCollector`` with every metric looked up at every event."""

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
