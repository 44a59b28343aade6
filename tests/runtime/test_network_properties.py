"""Model-based property tests for the FIFO network.

A hypothesis-driven reference-model test: the network under a random
program of sends/consumes/rollbacks must agree with a trivially correct
in-memory model (per-channel list + cursor pair). A second family runs
the same programs over a *faulty* medium (drops, duplicates, delays,
corruption) and requires the reliable transport to make the difference
invisible: same values, same queues, same FIFO order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.failures import NetworkFaultEvent, NetworkFaultKind
from repro.runtime.network import Network
from repro.runtime.transport import NetworkFaultInjector

N = 3
CHANNELS = [(s, d) for s in range(N) for d in range(N) if s != d]


def undelivered_messages(network: Network) -> list:
    """Every undelivered message, across all channels."""
    return [
        message for channel in network._channels.values()
        for message in channel.log[channel.delivered:]
    ]


class _ReferenceModel:
    """The obviously-correct model: per-channel log + cursors."""

    def __init__(self) -> None:
        self.logs = {key: [] for key in CHANNELS}
        self.delivered = {key: 0 for key in CHANNELS}
        self.next_value = 0

    def send(self, key) -> int:
        value = self.next_value
        self.next_value += 1
        self.logs[key].append(value)
        return value

    def queue(self, key):
        return self.logs[key][self.delivered[key]:]

    def consume(self, key):
        value = self.logs[key][self.delivered[key]]
        self.delivered[key] += 1
        return value

    def cursors(self):
        return {
            key: (len(self.logs[key]), self.delivered[key])
            for key in CHANNELS
        }

    def rollback(self, cursors):
        for key, (sent, delivered) in cursors.items():
            del self.logs[key][sent:]
            self.delivered[key] = min(delivered, sent)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(CHANNELS)),
        st.tuples(st.just("consume"), st.sampled_from(CHANNELS)),
        st.tuples(st.just("snapshot"), st.just(None)),
        st.tuples(st.just("rollback"), st.just(None)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=operations)
def test_network_matches_reference_model(ops):
    network = Network(N, base_latency=0.1, jitter=0.0)
    model = _ReferenceModel()
    time = 0.0
    snapshots = []

    for op, arg in ops:
        time += 0.1
        if op == "send":
            expected = model.send(arg)
            message = network.send(arg[0], arg[1], expected, send_time=time)
            assert message.value == expected
        elif op == "consume":
            if model.queue(arg):
                expected = model.consume(arg)
                assert network.consume(arg[0], arg[1]).value == expected
            else:
                assert network.peek(arg[0], arg[1]) is None
        elif op == "snapshot":
            snapshots.append(model.cursors())
        elif op == "rollback" and snapshots:
            cursors = snapshots.pop()
            model.rollback(cursors)
            network.rollback(
                {(s, d, "p2p"): v for (s, d), v in cursors.items()},
                restart_time=time,
            )

    # Final state: every channel's queue must match the model.
    for key in CHANNELS:
        queue = [
            m.value for m in undelivered_messages(network)
            if (m.src, m.dst) == key
        ]
        assert queue == model.queue(key)


@settings(max_examples=60, deadline=None)
@given(
    sends=st.lists(st.floats(min_value=0, max_value=100), max_size=20),
)
def test_fifo_arrivals_monotone(sends):
    """Whatever the send times, per-channel arrivals never reorder."""
    network = Network(2, base_latency=0.5, jitter=0.3)
    arrivals = [
        network.send(0, 1, i, send_time=t).arrival_time
        for i, t in enumerate(sends)
    ]
    assert arrivals == sorted(arrivals)


# ---------------------------------------------------------------------------
# The same reference-model program, but over a faulty medium.
# ---------------------------------------------------------------------------

_ONE_SHOT_KINDS = (
    NetworkFaultKind.DROP,
    NetworkFaultKind.DUPLICATE,
    NetworkFaultKind.DELAY,
    NetworkFaultKind.CORRUPT,
)

fault_events = st.lists(
    st.tuples(
        st.sampled_from(_ONE_SHOT_KINDS),
        st.sampled_from(CHANNELS),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=1.5, allow_nan=False),
    ),
    max_size=12,
)


def _build_injector(raw_events) -> NetworkFaultInjector:
    events = []
    seen = set()
    for kind, (src, dst), time, delay in raw_events:
        time = round(time, 6)
        key = (time, kind.value, src, dst)
        if key in seen:
            continue
        seen.add(key)
        events.append(NetworkFaultEvent(
            time=time,
            kind=kind,
            src=src,
            dst=dst,
            delay=round(delay, 6) if kind is NetworkFaultKind.DELAY else 0.0,
        ))
    return NetworkFaultInjector(events)


@settings(max_examples=120, deadline=None)
@given(ops=operations, faults=fault_events)
def test_faulty_network_matches_reference_model(ops, faults):
    """Drops, duplicates, delays, and corruption must be invisible.

    The reference model knows nothing about the transport; if the
    faulty network ever diverges from it — a lost value, a doubled
    value, reordering — the reliable transport has leaked a fault to
    the application layer. Rollback runs through the same program, so
    in-flight messages across a cut must also survive the faults.
    """
    network = Network(
        N, base_latency=0.1, jitter=0.0,
        fault_injector=_build_injector(faults),
    )
    model = _ReferenceModel()
    time = 0.0
    snapshots = []

    for op, arg in ops:
        time += 0.1
        if op == "send":
            expected = model.send(arg)
            message = network.send(arg[0], arg[1], expected, send_time=time)
            assert message.value == expected
        elif op == "consume":
            if model.queue(arg):
                assert network.consume(arg[0], arg[1]).value == model.consume(arg)
            else:
                assert network.peek(arg[0], arg[1]) is None
        elif op == "snapshot":
            snapshots.append(model.cursors())
        elif op == "rollback" and snapshots:
            cursors = snapshots.pop()
            model.rollback(cursors)
            in_flight = network.rollback(
                {(s, d, "p2p"): v for (s, d), v in cursors.items()},
                restart_time=time,
            )
            # In-flight messages across the cut survive, faults or not.
            by_channel = {}
            for message in in_flight:
                by_channel.setdefault((message.src, message.dst), []).append(
                    message.value
                )
            for key, values in by_channel.items():
                assert values == model.queue(key)

    for key in CHANNELS:
        queue = [
            m.value for m in undelivered_messages(network)
            if (m.src, m.dst) == key
        ]
        assert queue == model.queue(key)


@settings(max_examples=60, deadline=None)
@given(
    sends=st.lists(st.floats(min_value=0, max_value=6), max_size=15),
    faults=fault_events,
)
def test_fifo_arrivals_monotone_under_faults(sends, faults):
    """Retransmits and delays never reorder a channel's arrivals."""
    network = Network(
        2, base_latency=0.5, jitter=0.3,
        fault_injector=_build_injector(faults),
    )
    arrivals = [
        network.send(0, 1, i, send_time=t).arrival_time
        for i, t in enumerate(sends)
    ]
    assert arrivals == sorted(arrivals)
