"""V8: message logging restarts only the victim.

The same crash, rank 1 at t = 23.7 on jacobi with n = 4: straight-cut
recovery rolls all 4 ranks back, and receiver-based message logging
restarts 1.
"""

from repro.causality.records import EventKind
from repro.lang.programs import jacobi, jacobi_plain
from repro.protocols import ApplicationDrivenProtocol, MessageLoggingProtocol
from repro.runtime import FaultPlan, Simulation


def _restarts(program, protocol):
    result = Simulation(
        program, 4, params={"steps": 20}, protocol=protocol,
        fault_plan=FaultPlan.single(23.7, 1),
    ).run()
    assert result.stats.completed
    return len([e for e in result.trace.events if e.kind is EventKind.RESTART])


def test_straight_cut_restarts_4_ranks_and_logging_1():
    assert _restarts(jacobi(), ApplicationDrivenProtocol()) == 4
    assert _restarts(jacobi_plain(), MessageLoggingProtocol(period=8)) == 1
