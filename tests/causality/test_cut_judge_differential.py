"""The clock-matrix cut check against the pairwise checks it replaced.

``first_causal_pair`` folds a cut's clocks once and confirms only the
columns that fold flags; the oracle (``pairwise_cuts``) asks every
ordered pair. Both must name the same pair, or both none, and the
rollback search must land on the same positions with the same domino
count, on:

- every shipped program at n = 2..6 under every protocol, with no
  crash, one crash and two crashes: each run's storage cuts, trace cuts
  and rollback clock lists, and every check the run made itself;
- hand-built clocks no run makes: equal, zero, unpacked, mixed widths
  and ranks without a lane of their own.

The chaos sweep tests (``tests/chaos``) run under the same check.
"""

import pytest

from repro.causality.cuts import (
    CheckpointCut,
    checkpoints_by_process,
    cut_is_consistent,
    first_causal_pair,
)
from repro.causality.records import EventKind, TraceEvent
from repro.causality.rollback_graph import max_consistent_positions
from repro.causality.vector_clock import VectorClock
from repro.errors import ReproError, StorageError
from repro.lang.programs import load_program, program_names
from repro.protocols import make_protocol, protocol_names
from repro.runtime import FaultPlan, Simulation
from repro.runtime.chaos import chaos_sweep, storage_recovery_lines_consistent
from repro.runtime.failures import CrashEvent

from . import pairwise_cuts as oracle
from ..shipped_params import default_params


def same_pair(clocks):
    """The production answer for *clocks*, asserted equal to the oracle's
    (a ``ValueError`` too, which is raised again)."""
    got = oracle.outcome(lambda: first_causal_pair(clocks))
    assert got == oracle.outcome(lambda: oracle.first_causal_pair(clocks))
    if got[0] is ValueError:
        raise ValueError(got[1])
    return got[1]


def same_search(clock_lists):
    got = max_consistent_positions(clock_lists)
    assert got == oracle.max_consistent_positions(clock_lists)
    return got[1]


def judge_both_ways(sim, n):
    """Judge one run's storage cuts, trace cuts and rollback clock lists
    both ways; returns (inconsistent cuts, domino steps) seen."""
    ranks = range(n)
    storage, trace = sim.storage, sim.trace
    pairs = []
    for number in range(1, storage.max_common_number(ranks) + 1):
        try:
            clocks = {
                rank: oracle.latest_with_number(storage, rank, number).clock
                for rank in ranks
            }
        except StorageError:
            continue
        pairs.append(same_pair(clocks))
    assert storage_recovery_lines_consistent(sim, n) == (
        oracle.storage_recovery_lines_consistent(sim, n)
    )
    for cut in trace.all_straight_cuts():
        pairs.append(same_pair({e.process: e.clock for e in cut.members}))
        assert cut_is_consistent(cut) == oracle.cut_is_consistent(cut)
    grouped = checkpoints_by_process(trace.events)
    domino = same_search(
        {rank: [c.clock for c in storage.history(rank)] for rank in ranks}
    ) + same_search(
        {rank: [e.clock for e in grouped.get(rank, [])] for rank in ranks}
    )
    return sum(pair is not None for pair in pairs), domino


def judged_run(name, n, protocol, plan):
    """One run of shipped program *name*, left as it stopped."""
    sim = Simulation(
        load_program(name), n, params=default_params(name),
        protocol=make_protocol(protocol, period=6.0), fault_plan=plan,
    )
    try:
        sim.run()
    except ReproError:
        pass  # _validate_cut refused the cut, or nothing recovered
    return sim


@pytest.mark.parametrize("name", program_names())
def test_shipped_programs_judge_as_the_oracle(name, monkeypatch):
    judged = oracle.check_against_oracle(monkeypatch)
    inconsistent = domino = 0
    for n in range(2, 7):
        for protocol in protocol_names():
            clean = judged_run(name, n, protocol, FaultPlan())
            # One crash and two crashes inside the fault-free run.
            horizon = clean.trace.completion_time()
            plans = (
                FaultPlan.single(0.5 * horizon, n - 1),
                FaultPlan(crashes=[
                    CrashEvent(0.3 * horizon, 0),
                    CrashEvent(0.7 * horizon, n // 2),
                ]),
            )
            for sim in [clean] + [
                judged_run(name, n, protocol, plan) for plan in plans
            ]:
                cuts, steps = judge_both_ways(sim, n)
                inconsistent += cuts
                domino += steps
    assert judged
    if name in ("jacobi_odd_even", "ring_unsafe"):
        assert inconsistent and domino


def test_chaos_sweep_checks_run_against_the_oracle(monkeypatch):
    judged = oracle.check_against_oracle(monkeypatch)
    result = chaos_sweep(range(4))
    assert all(outcome.error is None for outcome in result.cells.values())
    assert judged


def clocks(*parts):
    return {rank: VectorClock(tuple(p)) for rank, p in enumerate(parts)}


class TestHandBuiltClocks:
    @pytest.mark.parametrize("width", (1, 2, 3, 8))
    def test_equal_and_zero_clocks_are_concurrent(self, width):
        for fill in (0, 3, 127, 200):
            same = {r: VectorClock((fill,) * width) for r in range(width)}
            assert same_pair(same) is None
        zero = {r: VectorClock.zero(width) for r in range(width)}
        assert same_pair(zero) is None

    def test_a_zero_clock_precedes_any_other(self):
        assert same_pair(clocks((0, 0, 0), (0, 1, 0), (0, 0, 0))) == (0, 1)
        assert same_pair(clocks((1, 0, 0), (0, 0, 0), (0, 0, 1))) == (1, 0)

    @pytest.mark.parametrize("big", (127, 128, 300, 2**70))
    def test_unpacked_clocks(self, big):
        assert same_pair(clocks((big, 0), (big, 1))) == (0, 1)
        assert same_pair(clocks((big, 0), (0, big))) is None
        assert same_pair(clocks((1, 0, 0), (0, big, 0), (1, big, 5))) == (0, 2)

    def test_the_pair_is_first_in_rank_order(self):
        # 2 -> 0 and 1 -> 2: the pair starting at the lower rank wins.
        chain = clocks((3, 1, 2), (0, 1, 0), (0, 1, 2))
        assert same_pair(chain) == (1, 0)
        assert same_pair({2: chain[2], 0: chain[0]}) == (2, 0)

    def test_a_member_without_its_own_lane_is_still_judged(self):
        low, high = VectorClock((1, 0)), VectorClock((2, 1))
        assert same_pair({0: low, 5: high}) == (0, 5)
        assert same_pair({-1: high, 0: low}) == (0, -1)

    @pytest.mark.parametrize("parts", [((1, 0), (1, 0, 0)), ((1,), (2, 3))])
    def test_mixed_widths_raise(self, parts):
        with pytest.raises(ValueError, match="clock size mismatch"):
            same_pair(clocks(*parts))

    def test_fewer_than_two_members(self):
        assert same_pair({}) is None
        assert same_pair({0: VectorClock((4, 5))}) is None

    def test_rollback_search_on_hand_built_lists(self):
        lists = {
            0: [VectorClock((1, 0, 0)), VectorClock((5, 0, 0))],
            1: [VectorClock((0, 1, 0)), VectorClock((5, 6, 0))],
            2: [VectorClock((0, 0, 1)), VectorClock((5, 6, 7))],
        }
        assert same_search(lists) == 2

    def test_cut_events_take_their_process_as_rank(self):
        def checkpoint(process, clock):
            return TraceEvent(
                kind=EventKind.CHECKPOINT, process=process, seq=0,
                time=0.0, clock=VectorClock(clock),
            )

        cut = CheckpointCut(
            members=(checkpoint(1, (2, 3)), checkpoint(0, (1, 0)))
        )
        assert not cut_is_consistent(cut)
        assert cut_is_consistent(cut) == oracle.cut_is_consistent(cut)
