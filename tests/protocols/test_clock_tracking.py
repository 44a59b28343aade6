"""In-band clock tracking must reproduce the engine's omniscient clocks."""

import pytest

from repro.causality.records import EventKind
from repro.lang.programs import (
    jacobi,
    master_worker,
    token_ring,
    tree_reduce,
)
from repro.runtime import Simulation

from .clock_tracking import ClockTrackingProtocol
from ..shipped_params import default_params


def run_tracked(make, n, steps=4):
    protocol = ClockTrackingProtocol()
    result = Simulation(
        make(), n, params=default_params(make().name, steps=steps),
        protocol=protocol,
    ).run()
    return protocol, result


def engine_checkpoint_clocks(result):
    clocks = {}
    for event in result.trace.events:
        if event.kind is not EventKind.CHECKPOINT:
            continue
        clocks[(event.process, event.checkpoint_number)] = event.clock
    return clocks


@pytest.mark.parametrize(
    "make,n",
    [(jacobi, 4), (master_worker, 4), (token_ring, 5), (tree_reduce, 4)],
)
class TestTrackedClocksMatchEngine:
    def test_checkpoint_clocks_identical(self, make, n):
        """The headline property: in-band tracking == omniscient."""
        protocol, result = run_tracked(make, n)
        engine = engine_checkpoint_clocks(result)
        assert engine, "workload produced no checkpoints"
        assert set(protocol.checkpoint_clocks) == set(engine)
        for key, tracked in protocol.checkpoint_clocks.items():
            assert tracked.components == engine[key].components, key

    def test_coordination_stats_unchanged(self, make, n):
        _, result = run_tracked(make, n)
        assert result.stats.control_messages == 0
        assert result.stats.forced_checkpoints == 0


class TestTrackedConsistencyAnalysis:
    def test_tracked_clocks_reproduce_consistency_verdicts(self):
        """Cut consistency computed from tracked clocks equals the
        verdict from engine clocks for every straight cut."""
        from repro.lang.programs import jacobi_odd_even

        for make, expect_consistent in ((jacobi, True), (jacobi_odd_even, False)):
            protocol, result = run_tracked(make, 4)
            engine = engine_checkpoint_clocks(result)
            max_index = result.trace.max_straight_cut_index()
            verdicts = []
            for index in range(1, max_index + 1):
                members = [
                    protocol.checkpoint_clocks[(rank, index)]
                    for rank in range(4)
                ]
                consistent = not any(
                    a.happened_before(b)
                    for a in members
                    for b in members
                    if a is not b
                )
                verdicts.append(consistent)
            assert all(verdicts) == expect_consistent, make
