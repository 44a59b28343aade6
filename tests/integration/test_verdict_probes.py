"""Two programs the static tower calls SAFE although they are not.

ROADMAP item 1 ("a SAFE verdict is true at the n it runs at, or the
tower refuses") is open: Phase II decides rank predicates over
``Universe().sizes`` = 2..17 only, and it never checks that every
process runs the checkpointed loop equally often. The strict xfails
below are that item's regression tests; its fix removes the marks.
"""

import pytest

from repro.errors import PlacementError, RecoveryError, ReproError
from repro.lang.parser import parse
from repro.phases.pipeline import transform
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FaultPlan, Simulation

ITEM_1 = (
    "ROADMAP item 1: the SAFE verdict is not checked at the run's n "
    "nor for iteration alignment"
)

#: Loop-free; the last rank swaps its send and checkpoint only when
#: its rank is at least 18, a size Phase II never looks at.
SIZE_UNIVERSE = """\
program size_universe():
    x = init(myrank)
    if myrank == 0:
        y = recv(nprocs - 1)
        x = combine(x, y)
        checkpoint
    elif myrank == nprocs - 1:
        if myrank >= 18:
            checkpoint
            send(0, x)
        else:
            send(0, x)
            checkpoint
    else:
        checkpoint
"""

#: Condition 1 holds (singleton ``S_i``), but rank 0 runs the loop
#: twice as often as rank 1 and sends one message an iteration to
#: rank 1's two, so the ranks' k-th checkpoints drift apart.
ALIGNMENT = """\
program alignment():
    x = init(myrank)
    i = 0
    while i < steps * (2 - myrank):
        checkpoint
        if myrank == 0:
            send(1, x)
        else:
            y = recv(0)
            y = recv(0)
            x = combine(x, y)
        i = i + 1
"""


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_size_universe_probe_is_consistent_or_refused_at_19():
    try:
        program = transform(parse(SIZE_UNIVERSE)).program
        run = Simulation(
            program, 19, protocol=ApplicationDrivenProtocol()
        ).run()
    except ReproError:
        return  # refused: the verdict does not cover n = 19
    assert run.trace.all_straight_cuts_consistent()


@pytest.mark.xfail(strict=True, reason=ITEM_1)
def test_transform_refuses_the_alignment_probe():
    with pytest.raises(PlacementError):
        transform(parse(ALIGNMENT))


def test_an_inconsistent_cut_names_its_ordered_ranks():
    # Transform makes no move on this program, so the parsed program is
    # the one it would run.
    with pytest.raises(
        RecoveryError,
        match=(
            r"^straight cut R_2 is not a recovery line: by vector clocks, "
            r"rank 0's checkpoint happened before rank 1's$"
        ),
    ):
        Simulation(
            parse(ALIGNMENT), 2, params={"steps": 4},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=FaultPlan.single(4.0, 1),
        ).run()
