"""Rollback-dependency graph and domino-effect tests."""

from repro.causality.cuts import cut_is_consistent
from repro.causality.records import EventKind, TraceEvent
from repro.causality.rollback_graph import (
    build_rollback_graph,
    max_consistent_cut,
    max_consistent_positions,
)
from repro.causality.vector_clock import VectorClock
from repro.lang.programs import jacobi
from repro.runtime import Simulation


def make_event(kind, process, seq, clock, message_id=None):
    return TraceEvent(
        kind=kind,
        process=process,
        seq=seq,
        time=float(seq),
        clock=VectorClock(clock),
        message_id=message_id,
        checkpoint_number=seq if kind is EventKind.CHECKPOINT else None,
    )


class TestPositionsFixpoint:
    def test_concurrent_latest_kept(self):
        positions, domino = max_consistent_positions(
            {0: [VectorClock((1, 0))], 1: [VectorClock((0, 1))]}
        )
        assert positions == {0: 0, 1: 0}
        assert domino == 0

    def test_single_rollback(self):
        positions, domino = max_consistent_positions(
            {
                0: [VectorClock((1, 0))],
                1: [VectorClock((0, 1)), VectorClock((2, 3))],
            }
        )
        # P1's latest (2,3) has P0's (1,0) in its past: P1 rolls back.
        assert positions == {0: 0, 1: 0}
        assert domino == 1

    def test_cascading_domino(self):
        # chain: each later checkpoint depends on the previous process's
        positions, domino = max_consistent_positions(
            {
                0: [VectorClock((1, 0, 0)), VectorClock((5, 0, 0))],
                1: [VectorClock((0, 1, 0)), VectorClock((5, 6, 0))],
                2: [VectorClock((0, 0, 1)), VectorClock((5, 6, 7))],
            }
        )
        # 2's latest depends on 1's latest which depends on 0's latest —
        # but all three latest are mutually ordered, so they cascade.
        assert domino >= 2
        assert positions[2] == 0

    def test_all_roll_to_floor(self):
        positions, _ = max_consistent_positions(
            {
                0: [VectorClock((2, 1))],
                1: [VectorClock((1, 2))],
            }
        )
        # the two singletons are mutually concurrent? (2,1) vs (1,2): yes
        assert positions == {0: 0, 1: 0}


class TestRollbackGraph:
    def test_edges_from_message_intervals(self):
        events = [
            make_event(EventKind.CHECKPOINT, 0, 0, (1, 0)),
            make_event(EventKind.SEND, 0, 1, (2, 0), message_id=1),
            make_event(EventKind.RECV, 1, 0, (2, 1), message_id=1),
            make_event(EventKind.CHECKPOINT, 1, 1, (2, 2)),
        ]
        graph = build_rollback_graph(events)
        # send in interval (0,1) -> recv in interval (1,0)
        assert (1, 0) in graph[(0, 1)]

    def test_simulated_trace_graph_nonempty(self):
        trace = Simulation(jacobi(), 4, params={"steps": 3}).run().trace
        graph = build_rollback_graph(trace.events)
        assert graph


class TestMaxConsistentCut:
    def test_latest_checkpoints_kept_when_consistent(self):
        trace = Simulation(jacobi(), 4, params={"steps": 3}).run().trace
        analysis = max_consistent_cut(trace.events, list(range(4)))
        assert analysis.cut is not None
        assert cut_is_consistent(analysis.cut)

    def test_result_is_always_consistent(self):
        from repro.lang.programs import jacobi_odd_even

        trace = Simulation(jacobi_odd_even(), 4, params={"steps": 3}).run().trace
        analysis = max_consistent_cut(trace.events, list(range(4)))
        if analysis.cut is not None:
            assert cut_is_consistent(analysis.cut)

    def test_rollback_counts_reported(self):
        events = [
            make_event(EventKind.CHECKPOINT, 0, 0, (1, 0)),
            make_event(EventKind.CHECKPOINT, 1, 0, (0, 1)),
            make_event(EventKind.CHECKPOINT, 1, 1, (3, 2)),
        ]
        analysis = max_consistent_cut(events, [0, 1])
        assert analysis.rollbacks[1] == 1
        assert sum(analysis.rollbacks.values()) == 1
        assert analysis.domino_steps == 1
