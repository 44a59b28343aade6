"""Unit tests of the event bus, metrics registry, and flight recorder."""

import pytest

from repro.causality.vector_clock import VectorClock
from repro.lang.programs import ring_pipeline
from repro.obs import (
    CATEGORIES,
    Counter,
    EventBus,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    ObsEvent,
    Observability,
    filter_events,
    summarize_events,
)
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FailurePlan, Simulation


def crashed_run(observer):
    """A ring with one crash: some 150 events on *observer*."""
    return Simulation(
        ring_pipeline(), 3, params={"steps": 8},
        protocol=ApplicationDrivenProtocol(),
        failure_plan=FailurePlan(crashes=[(12.0, 1)]), seed=0,
        observer=observer,
    ).run()


class TestEventBus:
    """Publishing, sequencing, and vector-clock auto-stamping."""

    def test_emit_delivers_to_all_subscribers(self):
        bus = EventBus()
        seen_a, seen_b = [], []
        bus.subscribe(seen_a.append)
        bus.subscribe(seen_b.append)
        event = bus.emit("engine", "send", 0, 1.5, dst=1)
        assert seen_a == [event]
        assert seen_b == [event]
        assert event.fields == {"dst": 1}

    def test_seq_is_global_and_monotonic(self):
        bus = EventBus()
        events = [bus.emit("engine", "send", r, 0.0) for r in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]
        assert bus.events_emitted == 5

    def test_bound_clocks_stamp_ranked_events(self):
        bus = EventBus()
        clocks = [VectorClock.zero(2), VectorClock.zero(2)]
        bus.bind_clocks(clocks)
        clocks[1] = clocks[1].tick(1)
        event = bus.emit("transport", "frame", 1, 0.5)
        assert event.clock == clocks[1].components

    def test_bound_clocks_track_in_place_mutation(self):
        # The engine replaces clock entries by index assignment on
        # rollback; the bus must see the *live* list, not a copy.
        bus = EventBus()
        clocks = [VectorClock.zero(1)]
        bus.bind_clocks(clocks)
        first = bus.emit("engine", "send", 0, 0.0)
        clocks[0] = clocks[0].tick(0).tick(0)
        second = bus.emit("engine", "send", 0, 1.0)
        assert first.clock == (0,)
        assert second.clock == (2,)

    def test_unranked_event_has_no_clock(self):
        bus = EventBus()
        bus.bind_clocks([VectorClock.zero(1)])
        event = bus.emit("protocol", "recovery", None, 3.0)
        assert event.clock is None

    def test_explicit_clock_wins_over_binding(self):
        bus = EventBus()
        bus.bind_clocks([VectorClock.zero(2)])
        event = bus.emit("engine", "send", 0, 0.0, clock=(7, 7))
        assert event.clock == (7, 7)


class TestObsEvent:
    """Serialisation round-trip."""

    def test_round_trip(self):
        event = ObsEvent(
            seq=3, category="storage", name="commit", rank=1,
            time=2.5, clock=(1, 2), fields={"number": 4},
        )
        assert ObsEvent.from_dict(event.to_dict()) == event

    def test_category_taxonomy_is_fixed(self):
        assert CATEGORIES == (
            "engine", "transport", "storage", "protocol", "span"
        )


class TestMetrics:
    """Counters, gauges, histograms, and the registry."""

    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_streams_moments(self):
        histogram = Histogram("h")
        for value in (1.0, 3.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == 3.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0

    def test_registry_is_lazy_and_kind_safe(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")
        data = registry.as_dict()
        assert data["a"]["type"] == "counter"

    def test_collector_derives_metrics_from_events(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry)
        bus = EventBus()
        collector.attach(bus)
        bus.emit("engine", "checkpoint", 0, 1.0, checkpoint_number=1)
        bus.emit("engine", "checkpoint", 0, 4.0, checkpoint_number=2)
        bus.emit("engine", "checkpoint", 1, 4.0, checkpoint_number=1)
        bus.emit("transport", "frame", 0, 1.0, seq=0, attempt=1)
        bus.emit("transport", "frame", 0, 2.0, seq=0, attempt=2)
        bus.emit("protocol", "recovery", None, 9.0, depth=2)
        data = registry.as_dict()
        assert data["events_total"]["value"] == 6
        assert data["checkpoint_latency"]["count"] == 1
        assert data["checkpoint_latency"]["mean"] == 3.0
        assert data["recovery_line_lag"]["value"] == 1
        assert data["retransmits_total"]["value"] == 1
        assert data["retransmit_rate"]["value"] == 0.5
        assert data["rollback_depth"]["max"] == 2.0


class TestFlightRecorder:
    """Bounded retention and dumping."""

    def test_keeps_only_the_newest_events(self):
        recorder = FlightRecorder(capacity=3)
        bus = EventBus()
        recorder.attach(bus)
        for index in range(10):
            bus.emit("engine", "send", 0, float(index))
        assert len(recorder) == 3
        assert [e.time for e in recorder.events()] == [7.0, 8.0, 9.0]
        assert recorder.dropped == 7

    def test_dump_writes_jsonl(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        bus = EventBus()
        recorder.attach(bus)
        bus.emit("engine", "send", 0, 0.0)
        path = recorder.dump(tmp_path / "flight.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # schema-version header + one event
        assert '"log_schema_version"' in lines[0]
        assert '"cat":"engine"' in lines[1]

    def test_list_backed_recorder_equals_the_subscribed_one(self, tmp_path):
        # One bus feeds a full log and a subscribed recorder; a second
        # recorder reads the log's tail. They must agree at every
        # event, before the run outgrows the capacity and after.
        capacity = 32
        bus = EventBus()
        log = []
        bus.subscribe(log.append)
        subscribed = FlightRecorder(capacity)
        subscribed.attach(bus)
        backed = FlightRecorder(capacity, log=log)

        def compare(event):
            assert backed.events() == subscribed.events()
            assert len(backed) == len(subscribed) <= capacity
            assert backed.dropped == subscribed.dropped

        bus.subscribe(compare)
        crashed_run(bus)
        assert len(log) > 4 * capacity
        assert backed.dropped == subscribed.dropped == len(log) - capacity
        assert backed.events() == log[-capacity:]
        assert backed.dump(tmp_path / "backed.jsonl").read_bytes() == (
            subscribed.dump(tmp_path / "subscribed.jsonl").read_bytes()
        )

    @pytest.mark.parametrize("keep_events", (True, False))
    def test_observability_recorder_holds_the_tail(self, keep_events):
        obs = Observability(capacity=50, keep_events=keep_events)
        seen = []
        obs.bus.subscribe(seen.append)
        crashed_run(obs.bus)
        assert obs.events == (seen if keep_events else [])
        assert obs.recorder.events() == seen[-50:]
        assert len(obs.recorder) == 50
        assert obs.recorder.dropped == len(seen) - 50
        # The full log is the only copy: with it kept, nothing feeds a
        # second ring.
        subscribers = len(obs.bus._subscribers) - 1  # less ``seen``
        assert subscribers == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0, log=[])


class TestSummary:
    """``summarize_events`` on logs that do not start at their start."""

    def test_time_span_starts_at_the_earliest_event(self):
        events = [
            ObsEvent(seq=seq, category="engine", name="send", rank=0,
                     time=time, clock=(seq,))
            for seq, time in enumerate((5.0, 3.0, 4.0))
        ]
        assert "time span   : 3.000 .. 5.000" in summarize_events(events)

    def test_time_span_of_a_flight_recorder_tail(self):
        # Bus order is not time order (ranks run ahead of one another),
        # so a tail or a filtered log rarely opens with its minimum.
        obs = Observability()
        crashed_run(obs.bus)
        tails = [
            obs.events[start:] for start in range(1, len(obs.events))
        ]
        late = [
            tail for tail in tails
            if tail[0].time > min(event.time for event in tail)
        ]
        assert len(late) > len(tails) // 10
        for tail in late[:: len(late) // 20] + [
            filter_events(obs.events, ranks=[2])
        ]:
            first = min(event.time for event in tail)
            last = max(event.time for event in tail)
            assert (
                f"time span   : {first:.3f} .. {last:.3f}\n"
                in summarize_events(tail)
            )
