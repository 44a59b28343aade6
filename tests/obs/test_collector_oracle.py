"""The collector against the lookup-per-event collector it replaced.

``MetricsCollector`` resolves a ``(category, name)`` kind once into its
counter and a handler that holds its metric objects;
``reference_collector.ReferenceCollector`` is the old procedure, which
goes through the registry for every metric at every event. After any
prefix of any event stream the two registries must be equal as
``as_dict()`` — values, number types, and which names exist — whether
the registry started empty or the caller had put metrics into it.
Covered: the live streams of all six protocols under the
``test_live_rollup`` fault draws, and Hypothesis-drawn event lists
(unknown categories and names, missing and odd fields, ``rank=None``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs import EventBus, MetricsCollector, MetricsRegistry, ObsEvent

from .reference_collector import ReferenceCollector
from .test_live_rollup import PROTOCOLS, SEEDS, faulted_spec


def dumps(registry):
    return json.dumps(registry.as_dict(), sort_keys=True)


def fed(collector_type, events, prepare=None, reads=None):
    """The registry a *collector_type* leaves after *events*.

    *prepare* puts the caller's own metrics in first; *reads*, a list,
    receives the registry's dict form after every event.
    """
    registry = MetricsRegistry()
    if prepare is not None:
        prepare(registry)
    collector = collector_type(registry)
    for event in events:
        collector.on_event(event)
        if reads is not None:
            reads.append(dumps(registry))
    return registry


def assert_same_registries(events, prepare=None):
    reads, expected_reads = [], []
    got = fed(MetricsCollector, events, prepare, reads)
    expected = fed(ReferenceCollector, events, prepare, expected_reads)
    assert dumps(got) == dumps(expected)
    assert reads == expected_reads


class TestLiveStreams:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_under_drawn_faults(self, protocol, seed):
        bus = EventBus()
        registry, expected = MetricsRegistry(), MetricsRegistry()
        MetricsCollector(registry).attach(bus)
        ReferenceCollector(expected).attach(bus)
        events = []
        bus.subscribe(events.append)

        def read_in_mid_run(event):
            # Whatever exists by now must exist, equal, in both.
            if event.seq % 97 == 0:
                assert dumps(registry) == dumps(expected), event.seq

        bus.subscribe(read_in_mid_run)
        try:
            faulted_spec(protocol, seed).build(observer=bus).run()
        except ReproError:
            pass  # an unrecoverable cell's stream counts as well
        assert len(events) > 100
        assert dumps(registry) == dumps(expected)
        assert registry.as_dict()["events_total"]["value"] == len(events)


CATEGORIES = st.sampled_from(
    ["engine", "transport", "storage", "protocol", "span", "chaos", ""]
)
NAMES = st.sampled_from([
    "checkpoint", "recovery-retry", "unrecoverable", "frame", "recovery",
    "commit", "gc", "occupancy", "recovery.attempt", "send", "ack", "x.y",
])
NUMBERS = (
    st.integers(0, 2 ** 40)
    | st.floats(0, 1e9, allow_nan=False)
    | st.booleans()
)
FIELDS = st.fixed_dictionaries({}, optional={
    "dur": NUMBERS, "bytes": NUMBERS, "attempt": NUMBERS,
    "retries": st.integers(0, 3), "backoff": NUMBERS, "depth": NUMBERS,
    "count": NUMBERS, "checkpoint_number": st.none() | st.integers(0, 9),
    "other": st.text(max_size=3),
})
EVENTS = st.lists(
    st.builds(
        ObsEvent,
        seq=st.integers(0, 99),
        category=CATEGORIES,
        name=NAMES,
        rank=st.none() | st.integers(0, 3),
        time=st.floats(0, 1e6, allow_nan=False) | st.integers(0, 100),
        clock=st.none(),
        fields=FIELDS,
    ),
    max_size=24,
)


def caller_metrics(registry):
    """Metrics of the collector's own names, put there by the caller."""
    registry.counter("events_total").inc(5)
    registry.counter("engine.checkpoint").inc(2)
    registry.counter("frames_total").inc(3)
    registry.histogram("checkpoint_latency").observe(7.5)
    registry.gauge("snapshot_bytes").set(11.0)
    registry.counter("stats.completed").inc()


class TestDrawnStreams:
    @settings(max_examples=300, deadline=None)
    @given(events=EVENTS)
    def test_registry_equal_after_every_event(self, events):
        assert_same_registries(events)

    @settings(max_examples=100, deadline=None)
    @given(events=EVENTS)
    def test_registry_the_caller_put_metrics_in(self, events):
        assert_same_registries(events, caller_metrics)

    def test_empty_stream_registers_nothing(self):
        assert fed(MetricsCollector, []).as_dict() == {}

    def test_names_appear_only_when_their_event_does(self):
        def event(category, name, rank=0, **fields):
            return ObsEvent(
                seq=0, category=category, name=name, rank=rank, time=1.0,
                fields=fields,
            )

        stream = [
            event("engine", "checkpoint", rank=None),  # counted, no more
            event("engine", "checkpoint"),             # first of its rank
            event("storage", "commit", bytes=8),       # no retries
        ]
        assert sorted(fed(MetricsCollector, stream).as_dict()) == [
            "engine.checkpoint", "events_total", "snapshot_bytes",
            "snapshot_bytes_dist", "storage.commit",
        ]
        assert_same_registries(stream)
        stream += [
            event("engine", "checkpoint", checkpoint_number=2),
            event("storage", "commit", bytes=8, retries=2),
        ]
        assert sorted(
            set(fed(MetricsCollector, stream).as_dict())
            - set(fed(MetricsCollector, stream[:3]).as_dict())
        ) == ["checkpoint_latency", "recovery_line_lag",
              "storage_retries_total"]
        assert_same_registries(stream)

    @pytest.mark.parametrize("taken", [
        "events_total", "transport.frame", "retransmit_rate",
        "checkpoint_latency",
    ])
    def test_name_taken_by_another_kind_of_metric_raises(self, taken):
        def prepare(registry):
            # A gauge where a counter or a histogram is due, or a
            # counter where the gauge is.
            if taken == "retransmit_rate":
                registry.counter(taken)
            else:
                registry.gauge(taken)

        stream = [
            ObsEvent(seq=seq, category=category, name=name, rank=0,
                     time=float(seq))
            for seq, (category, name) in enumerate([
                ("engine", "checkpoint"), ("engine", "checkpoint"),
                ("transport", "frame"),
            ])
        ]
        for collector_type in (MetricsCollector, ReferenceCollector):
            with pytest.raises(TypeError, match="already registered"):
                fed(collector_type, stream, prepare)
