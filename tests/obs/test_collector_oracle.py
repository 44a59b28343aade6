"""The collector's batched fold against the lookup-per-event collector.

``MetricsCollector.feed`` groups a batch of the event log by
``(category, name)`` kind and runs each kind's handler over its group;
``reference_collector.ReferenceCollector`` is the old procedure, which
goes through the registry for every metric at every event. Cut any
event stream into any batches: after every batch the two registries
must be equal as ``as_dict()`` — values, number types, and which names
exist — whether the registry started empty or the caller had put
metrics into it, and a name the caller took with another type of
metric must raise ``TypeError`` in the same batch in both. Covered: the
live streams of all six protocols under the ``test_live_rollup`` fault
draws, read mid-run through ``Observability.metrics``, and
Hypothesis-drawn event lists and cuts (unknown categories and names,
missing and odd fields, ``rank=None``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs import MetricsCollector, MetricsRegistry, ObsEvent, Observability

from .reference_collector import ReferenceCollector
from .test_live_rollup import PROTOCOLS, SEEDS, faulted_spec


def dumps(registry):
    return json.dumps(registry.as_dict(), sort_keys=True)


def reads(collector_type, events, cuts=(), prepare=None):
    """The registry's JSON after each batch *cuts* splits *events* into.

    *prepare* puts the caller's own metrics in first. A batch whose fold
    raises ``TypeError`` reads ``TypeError`` and ends the list.
    """
    registry = MetricsRegistry()
    if prepare is not None:
        prepare(registry)
    collector = collector_type(registry)
    out, done = [], 0
    for cut in [*cuts, len(events)]:
        try:
            collector.feed(events[done:cut])
        except TypeError:
            return [*out, TypeError]
        done = cut
        out.append(dumps(registry))
    return out


def observed_reads(events, cuts):
    """``Observability.metrics`` read at each cut while *events* are
    emitted on its bus."""
    obs, out, done = Observability(), [], 0
    for cut in [*cuts, len(events)]:
        for event in events[done:cut]:
            obs.bus.emit(
                event.category, event.name, event.rank, event.time,
                **event.fields,
            )
        done = cut
        out.append(dumps(obs.metrics))
    return out


def assert_same_reads(events, cuts=(), prepare=None):
    got = reads(MetricsCollector, events, cuts, prepare)
    assert got == reads(ReferenceCollector, events, cuts, prepare)
    return got


class TestLiveStreams:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_read_mid_run(self, protocol, seed):
        obs = Observability()
        publish, mid_run = obs.bus._publish, {}

        def publish_and_read(*event):
            # Read the live registry now and then while the run goes on.
            published = publish(*event)
            if published.seq % 97 == 0:
                mid_run[published.seq + 1] = dumps(obs.metrics)
            return published

        obs.bus._publish = publish_and_read
        try:
            faulted_spec(protocol, seed).build(observer=obs.bus).run()
        except ReproError:
            pass  # an unrecoverable cell's stream counts as well
        final = dumps(obs.metrics)
        events = obs.events
        assert len(events) > 100 and len(mid_run) > 1
        expected = reads(ReferenceCollector, events, list(mid_run))
        assert [*mid_run.values(), final] == expected
        assert obs.metrics.as_dict()["events_total"]["value"] == len(events)


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
}) | st.just(ObsEvent._field_defaults["fields"])
#: Every kind a handler folds, drawn as often as all others together.
KINDS = st.sampled_from([
    ("engine", "checkpoint"), ("engine", "recovery-retry"),
    ("engine", "unrecoverable"), ("transport", "frame"),
    ("protocol", "recovery"), ("storage", "commit"), ("storage", "gc"),
    ("storage", "occupancy"), ("span", "recovery.attempt"),
]) | st.tuples(CATEGORIES, NAMES)
EVENTS = st.lists(
    st.builds(
        lambda kind, **parts: ObsEvent(
            category=kind[0], name=kind[1], **parts
        ),
        kind=KINDS,
        seq=st.integers(0, 99),
        rank=st.none() | st.integers(0, 3),
        time=st.floats(0, 1e6, allow_nan=False) | st.integers(0, 100),
        clock=st.none(),
        fields=FIELDS,
    ),
    max_size=24,
)
#: Every name the collector registers for a drawn event.
TAKEN = st.sampled_from([
    "events_total", "engine.checkpoint", "transport.frame", "x.y",
    "frames_total", "retransmits_total", "retransmit_rate",
    "checkpoint_latency", "recovery_line_lag", "snapshot_bytes",
    "snapshot_bytes_dist", "storage_retries_total", "gc_collected_total",
    "gc_reclaimed_bytes_total", "storage_checkpoints", "storage_bytes",
    "recovery_retries_total", "recovery_backoff", "unrecoverable_total",
    "rollback_depth", "span.recovery.attempt.sim_dur",
])
METRIC_TYPES = st.sampled_from(["counter", "gauge", "histogram"])


def cuts_of(events):
    """Sorted batch boundaries inside *events*."""
    return st.lists(st.integers(0, len(events)), max_size=5).map(sorted)


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
    @given(events=EVENTS, data=st.data())
    def test_registry_equal_after_every_batch(self, events, data):
        cuts = data.draw(cuts_of(events))
        assert observed_reads(events, cuts) == assert_same_reads(events, cuts)

    @settings(max_examples=100, deadline=None)
    @given(events=EVENTS, data=st.data())
    def test_registry_the_caller_put_metrics_in(self, events, data):
        assert_same_reads(events, data.draw(cuts_of(events)), caller_metrics)

    @settings(max_examples=200, deadline=None)
    @given(events=EVENTS, taken=TAKEN, kind=METRIC_TYPES, data=st.data())
    def test_a_taken_name_raises_in_the_same_batch(
        self, events, taken, kind, data
    ):
        def prepare(registry):
            getattr(registry, kind)(taken)

        assert_same_reads(events, data.draw(cuts_of(events)), prepare)

    def test_one_event_at_a_time_equals_one_batch(self):
        events = [
            ObsEvent(seq, category, name, rank, float(seq), None, fields)
            for seq, (category, name, rank, fields) in enumerate([
                ("engine", "checkpoint", 0, {"checkpoint_number": 1}),
                ("transport", "frame", 0, {"attempt": 2}),
                ("engine", "checkpoint", 1, {"checkpoint_number": 3}),
                ("storage", "commit", 0, {"bytes": 7, "retries": 1}),
                ("engine", "checkpoint", 0, {"checkpoint_number": 2}),
                ("transport", "frame", 1, {}),
                ("storage", "commit", 1, {"bytes": 9}),
            ])
        ]
        single = assert_same_reads(events, range(1, len(events)))
        assert single[-1] == assert_same_reads(events)[-1]

    def test_empty_stream_registers_nothing(self):
        assert reads(MetricsCollector, []) == ["{}"]

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
        first = json.loads(assert_same_reads(stream)[-1])
        assert sorted(first) == [
            "engine.checkpoint", "events_total", "snapshot_bytes",
            "snapshot_bytes_dist", "storage.commit",
        ]
        stream += [
            event("engine", "checkpoint", checkpoint_number=2),
            event("storage", "commit", bytes=8, retries=2),
        ]
        second = json.loads(assert_same_reads(stream, [3])[-1])
        assert sorted(set(second) - set(first)) == [
            "checkpoint_latency", "recovery_line_lag",
            "storage_retries_total",
        ]

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
            registry = MetricsRegistry()
            prepare(registry)
            with pytest.raises(TypeError, match="already registered"):
                collector_type(registry).feed(stream)
