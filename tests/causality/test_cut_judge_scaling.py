"""Call-count guard: judging a run's cuts costs k·n clock operations.

The chaos judge decides each of a run's k straight cuts over n ranks
with one fold of the members' clocks, so its clock operations grow
linearly in n: with the steps fixed, doubling the ranks may at most
double them. Counts, not seconds, so these cannot flake. A pairwise
check makes n·(n − 1) ``happened_before`` calls a cut and fails here.
"""

import sys
from pathlib import Path

import pytest

from repro.causality.cuts import first_causal_pair
from repro.causality.vector_clock import VectorClock
from repro.lang.programs import load_program
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.chaos import storage_recovery_lines_consistent

from ..shipped_params import default_params

CAUSALITY = str(Path(sys.modules[VectorClock.__module__].__file__).parent)


def clock_operations_in(action) -> int:
    """Python calls *action()* makes into ``repro.causality``."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(CAUSALITY):
            calls += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def stencil_run(n):
    return Simulation(
        load_program("stencil_1d"), n,
        params=default_params("stencil_1d", steps=4),
        protocol=ApplicationDrivenProtocol(),
    ).run()


@pytest.mark.parametrize("n", (16, 32))
def test_judge_clock_operations_grow_linearly_in_n(n):
    small, large = stencil_run(n), stencil_run(2 * n)
    assert small.storage.max_common_number(range(n)) == (
        large.storage.max_common_number(range(2 * n))
    )
    counts = []
    for result, ranks in ((small, n), (large, 2 * n)):
        verdict = []
        counts.append(clock_operations_in(
            lambda: verdict.append(
                storage_recovery_lines_consistent(result, ranks)
            )
        ))
        assert verdict == [True]
    assert counts[1] <= 2 * counts[0] + 4, counts


def test_judging_a_consistent_run_leaves_packed_clocks_packed():
    result = stencil_run(24)
    clocks = [
        checkpoint.clock
        for rank in range(24) for checkpoint in result.storage.history(rank)
    ]
    unread = [clock for clock in clocks if clock._parts is None]
    assert unread
    assert storage_recovery_lines_consistent(result, 24)
    assert all(clock._parts is None for clock in unread)


def test_confirming_a_flagged_column_reads_no_components():
    base = VectorClock.zero(4)
    sender = base.tick(0)
    cut = {
        0: sender, 1: base.receive(sender, 1),
        2: base.tick(2), 3: base.tick(3),
    }
    assert first_causal_pair(cut) == (0, 1)
    assert all(clock._parts is None for clock in cut.values())
