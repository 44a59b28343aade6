"""Unit tests of the event bus, metrics registry, and flight recorder."""

import re
from pathlib import Path

import pytest

import repro

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
    events_to_jsonl,
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

    def test_emit_appends_to_the_log(self):
        bus = EventBus()
        event = bus.emit("engine", "send", 0, 1.5, dst=1)
        assert bus.events == [event]
        assert bus.events[0] is event
        assert event.fields == {"dst": 1}

    def test_seq_is_the_log_index(self):
        bus = EventBus()
        events = [bus.emit("engine", "send", r, 0.0) for r in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]
        assert bus.events == events
        assert len(bus.events) == 5

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

    def test_one_tuple_with_no_dict(self):
        event = EventBus().emit("engine", "send", 0, 1.5, dst=1)
        assert type(event) is ObsEvent and isinstance(event, tuple)
        assert not hasattr(event, "__dict__")
        assert event._replace(rank=2) == (0, "engine", "send", 2, 1.5, None,
                                          {"dst": 1})

    def test_default_fields_are_empty_and_read_only(self):
        first = ObsEvent(seq=0, category="engine", name="send", rank=0,
                         time=0.0)
        second = ObsEvent(seq=1, category="engine", name="send", rank=0,
                          time=0.0)
        assert first.fields == {} and "fields" not in first.to_dict()
        with pytest.raises(TypeError):
            first.fields["x"] = 1
        assert second.fields == {}

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
        bus = EventBus()
        bus.emit("engine", "checkpoint", 0, 1.0, checkpoint_number=1)
        bus.emit("engine", "checkpoint", 0, 4.0, checkpoint_number=2)
        bus.emit("engine", "checkpoint", 1, 4.0, checkpoint_number=1)
        bus.emit("transport", "frame", 0, 1.0, seq=0, attempt=1)
        bus.emit("transport", "frame", 0, 2.0, seq=0, attempt=2)
        bus.emit("protocol", "recovery", None, 9.0, depth=2)
        MetricsCollector(registry).feed(bus.events)
        data = registry.as_dict()
        assert data["events_total"]["value"] == 6
        assert data["checkpoint_latency"]["count"] == 1
        assert data["checkpoint_latency"]["mean"] == 3.0
        assert data["recovery_line_lag"]["value"] == 1
        assert data["retransmits_total"]["value"] == 1
        assert data["retransmit_rate"]["value"] == 0.5
        assert data["rollback_depth"]["max"] == 2.0


class TestFlightRecorder:
    """The bounded tail of a log, and its dump."""

    def test_keeps_only_the_newest_events(self):
        bus = EventBus()
        recorder = FlightRecorder(bus.events, capacity=3)
        assert len(recorder) == 0 and recorder.events() == []
        for index in range(10):
            bus.emit("engine", "send", 0, float(index))
        assert len(recorder) == 3
        assert [e.time for e in recorder.events()] == [7.0, 8.0, 9.0]
        assert recorder.dropped == 7

    def test_dump_writes_jsonl(self, tmp_path):
        bus = EventBus()
        recorder = FlightRecorder(bus.events, capacity=8)
        bus.emit("engine", "send", 0, 0.0)
        path = recorder.dump(tmp_path / "flight.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # schema-version header + one event
        assert '"log_schema_version"' in lines[0]
        assert '"cat":"engine"' in lines[1]

    def test_tail_follows_the_log_at_every_length(self, tmp_path):
        # Before the run outgrows the capacity and after, the recorder
        # is the log's last ``capacity`` events and nothing else.
        capacity = 32
        obs = Observability(capacity=capacity)
        crashed_run(obs.bus)
        log = obs.events
        assert log is obs.bus.events and len(log) > 4 * capacity
        for length in range(len(log) + 1):
            recorder = FlightRecorder(log[:length], capacity)
            assert recorder.events() == log[max(0, length - capacity):length]
            assert len(recorder) == min(length, capacity)
            assert recorder.dropped == max(0, length - capacity)
        assert obs.recorder.events() == log[-capacity:]
        assert obs.recorder.dropped == len(log) - capacity
        assert obs.recorder.dump(tmp_path / "tail.jsonl").read_text() == (
            events_to_jsonl(log[-capacity:])
        )

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder([], capacity=0)


class TestOneLogOneFold:
    """The bus is the log; nothing in the package subscribes to it."""

    def test_no_subscriber_or_per_event_path_in_src(self):
        gone = re.compile(
            r"\bsubscribe\b|\bkeep_events\b|\.attach\(|def attach\b"
            r"|\bon_event\b|_subscribers"
        )
        hits = [
            f"{path.name}:{number}"
            for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
        ]
        assert hits == []

    def test_removed_entry_points_stay_removed(self):
        for owner, name in [
            (EventBus, "subscribe"), (FlightRecorder, "attach"),
            (FlightRecorder, "record"), (MetricsCollector, "attach"),
            (MetricsCollector, "on_event"),
        ]:
            assert not hasattr(owner, name), (owner.__name__, name)
        with pytest.raises(TypeError):
            Observability(keep_events=False)

    def test_a_metric_type_conflict_raises_at_the_read(self):
        obs = Observability()
        obs.bus.emit("span", "x", None, 0.0, dur=1.0)
        obs.bus.emit("span", "x.sim_dur", None, 0.0, dur=1.0)
        with pytest.raises(TypeError, match="already registered"):
            obs.metrics


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
