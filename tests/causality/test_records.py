"""The engine's per-event records are one tuple each.

``TraceEvent``, ``Message`` and ``Delivery`` are built once per traced
event, application send and transmission. As ``NamedTuple`` records
they cost one allocation and carry no ``__dict__``, while keeping the
value semantics the analyses rely on: equality and hash by field,
their ``repr``, and the round trip through the event log.
"""

import pytest

from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock
from repro.lang.programs import jacobi
from repro.obs import (
    Observability,
    events_to_jsonl,
    read_event_log,
    trace_from_events,
)
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.network import Message, Network
from repro.runtime.transport import Delivery, ReliableTransport


@pytest.fixture(scope="module")
def obs():
    return Observability()


@pytest.fixture(scope="module")
def result(obs):
    return Simulation(
        jacobi(), 4, params={"steps": 3},
        protocol=ApplicationDrivenProtocol(), observer=obs.bus,
    ).run()


def test_engine_builds_plain_tuples_without_a_dict(result):
    records = (
        result.trace.events[0],
        Network(2).send(0, 1, 7, 0.0),
        ReliableTransport().transmit(0, 1, "p2p", 7, 0.0, 0.5),
    )
    for record, cls in zip(records, (TraceEvent, Message, Delivery)):
        assert type(record) is cls and isinstance(record, tuple)
        assert not hasattr(record, "__dict__")


def test_equality_and_hash_go_by_fields():
    clock = VectorClock.zero(2).tick(0)
    event = TraceEvent(EventKind.SEND, 0, 1, 2.5, clock, message_id=3, peer=1)
    twin = TraceEvent(EventKind.SEND, 0, 1, 2.5, clock, message_id=3, peer=1)
    assert event == twin and hash(event) == hash(twin)
    assert event != event._replace(peer=2)
    assert Delivery(1.0, 0, 1) == Delivery(1.0, 0, 1)
    assert hash(Delivery(1.0, 0, 2)) != hash(Delivery(1.0, 0, 1))
    message = Message(1, 0, 1, "p2p", 5, 0.0, 0.5, {})
    assert message == Message(1, 0, 1, "p2p", 5, 0.0, 0.5, {})
    assert message.channel == (0, 1, "p2p")


def test_repr_is_unchanged():
    clock = VectorClock.zero(2)
    assert repr(
        TraceEvent(EventKind.RECV, 1, 4, 3.25, clock, message_id=9, peer=0)
    ) == "<P1.4 recv m9 peer=0 t=3.250>"
    assert repr(
        TraceEvent(EventKind.CHECKPOINT, 0, 2, 1.0, clock, checkpoint_number=1)
    ) == "<P0.2 checkpoint #1 t=1.000>"
    assert repr(Delivery(1.5, 0, 1)) == (
        "Delivery(delivery_time=1.5, seq=0, attempts=1)"
    )
    assert repr(Message(1, 0, 1, "p2p", 5, 0.0, 0.5, {})) == (
        "Message(message_id=1, src=0, dst=1, lane='p2p', value=5, "
        "send_time=0.0, arrival_time=0.5, piggyback={})"
    )


def test_event_log_round_trip(obs, result):
    rebuilt = trace_from_events(read_event_log(events_to_jsonl(obs.events)))
    assert rebuilt.n_processes == result.trace.n_processes
    assert rebuilt.events == result.trace.events
    assert all(type(event) is TraceEvent for event in rebuilt.events)


def test_network_send_builds_the_message_it_logs():
    network = Network(2)
    message = network.send(0, 1, 42, 1.0, piggyback={"k": 1})
    assert message == (1, 0, 1, "p2p", 42, 1.0, message.arrival_time, {"k": 1})
    assert network.pop(0, 1) is message
