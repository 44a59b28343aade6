"""Differential tests: bitset zigzag closure vs a naive hop walk.

:class:`~repro.causality.zigzag.ZigzagAnalysis` answers reachability
queries from per-hop transitive-closure bitmasks built once over the
SCC condensation of the hop graph. These tests re-derive every answer
with the obvious per-query DFS over the same hop adjacency — the shape
of the implementation the bitmasks replaced — on real simulated traces.
"""

import pytest

from repro.causality.cuts import checkpoints_by_process
from repro.causality.zigzag import ZigzagAnalysis
from repro.lang.programs import jacobi, jacobi_odd_even, token_ring
from repro.runtime import Simulation


def naive_path_exists(analysis, source, target):
    """Per-query DFS over the hop graph (the pre-bitset semantics)."""
    src_proc, src_number = source
    dst_proc, dst_number = target
    hops = analysis._hops
    starts = [
        hop for hop in hops
        if hop.sender == src_proc and hop.send_interval >= src_number
    ]
    seen = set()
    stack = list(starts)
    reached = []
    while stack:
        hop = stack.pop()
        if id(hop) in seen:
            continue
        seen.add(id(hop))
        reached.append(hop)
        for nxt in hops:
            if (
                nxt.sender == hop.receiver
                and nxt.send_interval >= hop.recv_interval
            ):
                stack.append(nxt)
    return any(
        hop.receiver == dst_proc and hop.recv_interval < dst_number
        for hop in reached
    )


def simulated_trace(make_program, n):
    result = Simulation(make_program(), n, params={"steps": 4}).run()
    return result.trace.events


@pytest.mark.parametrize(
    "make_program,n",
    [(jacobi, 4), (jacobi_odd_even, 4), (token_ring, 5)],
    ids=["jacobi", "jacobi_odd_even", "token_ring"],
)
class TestAgainstNaiveWalk:
    def checkpoints(self, events):
        return [
            (process, event.checkpoint_number)
            for process, history in sorted(
                checkpoints_by_process(events).items()
            )
            for event in history
        ]

    def test_all_pairs_agree(self, make_program, n):
        events = simulated_trace(make_program, n)
        analysis = ZigzagAnalysis(events)
        checkpoints = self.checkpoints(events)
        assert checkpoints, "trace has no checkpoints to compare"
        for a in checkpoints:
            for b in checkpoints:
                assert analysis.zigzag_path_exists(a, b) == (
                    naive_path_exists(analysis, a, b)
                ), (a, b)

    def test_closure_masks_match_naive_reach(self, make_program, n):
        events = simulated_trace(make_program, n)
        analysis = ZigzagAnalysis(events)
        masks = analysis._ensure_closures()
        for start in analysis._hops:
            expected = {id(start)}
            stack = [start]
            while stack:
                hop = stack.pop()
                for nxt in analysis._hops:
                    if (
                        nxt.sender == hop.receiver
                        and nxt.send_interval >= hop.recv_interval
                        and id(nxt) not in expected
                    ):
                        expected.add(id(nxt))
                        stack.append(nxt)
            mask = masks[analysis._hop_pos[id(start)]]
            assert {
                id(hop) for position, hop in enumerate(analysis._hops)
                if mask >> position & 1
            } == expected
