"""Happened-before tests: vector clocks vs. explicit graph reachability.

The key property: on traces produced by the real simulator, the
clock-based answer and the from-first-principles graph answer must
agree for every event pair. This validates the engine's clock
maintenance end to end.
"""

import itertools

import pytest

from repro.causality.happened_before import happened_before
from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock
from repro.lang.programs import jacobi, master_worker, token_ring
from repro.runtime import Simulation

from .happened_before_graph import HappenedBeforeGraph


def event(kind, process, seq, clock, message_id=None):
    return TraceEvent(
        kind=kind,
        process=process,
        seq=seq,
        time=float(seq),
        clock=VectorClock(clock),
        message_id=message_id,
        peer=None,
    )


class TestManualTraces:
    def test_process_order(self):
        a = event(EventKind.CHECKPOINT, 0, 0, (1, 0))
        b = event(EventKind.CHECKPOINT, 0, 1, (2, 0))
        assert happened_before(a, b)
        assert not happened_before(b, a)

    def test_message_order(self):
        send = event(EventKind.SEND, 0, 0, (1, 0), message_id=1)
        recv = event(EventKind.RECV, 1, 0, (1, 1), message_id=1)
        assert happened_before(send, recv)

    def test_concurrent_events(self):
        a = event(EventKind.CHECKPOINT, 0, 0, (1, 0))
        b = event(EventKind.CHECKPOINT, 1, 0, (0, 1))
        assert not happened_before(a, b)
        assert not happened_before(b, a)

    def test_graph_agrees_on_manual_trace(self):
        send = event(EventKind.SEND, 0, 0, (1, 0), message_id=7)
        recv = event(EventKind.RECV, 1, 0, (1, 1), message_id=7)
        later = event(EventKind.CHECKPOINT, 1, 1, (1, 2))
        graph = HappenedBeforeGraph([send, recv, later])
        assert graph.reaches(send, recv)
        assert graph.reaches(send, later)
        assert not graph.reaches(later, send)


@pytest.mark.parametrize(
    "make,n",
    [(jacobi, 4), (master_worker, 3), (token_ring, 4)],
)
class TestSimulatedTraces:
    def test_clock_and_graph_agree(self, make, n):
        trace = Simulation(make(), n, params={"steps": 3}).run().trace
        events = trace.events
        graph = HappenedBeforeGraph(events)
        for a, b in itertools.combinations(events, 2):
            assert happened_before(a, b) == graph.reaches(a, b), (a, b)

    def test_send_always_before_matching_recv(self, make, n):
        trace = Simulation(make(), n, params={"steps": 3}).run().trace
        sends = {
            e.message_id: e for e in trace.events if e.kind is EventKind.SEND
        }
        for recv in trace.events:
            if recv.kind is EventKind.RECV:
                assert happened_before(sends[recv.message_id], recv)

    def test_local_history_totally_ordered(self, make, n):
        trace = Simulation(make(), n, params={"steps": 3}).run().trace
        for rank in range(n):
            history = [e for e in trace.events if e.process == rank]
            for a, b in zip(history, history[1:]):
                assert happened_before(a, b)
