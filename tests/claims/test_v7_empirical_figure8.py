"""V7: empirical Figure 8 — coordination traffic on the simulator.

jacobi runs 10 steps at n = 4, 8 and 16 with a checkpoint round every
4 time units, which is 3 rounds. A SaS round costs 5(n−1) control
messages and a C-L round (n−1)(n+1), so from n = 4 to 16 SaS grows
45 → 225 and C-L 45 → 765. The application-driven protocol sends none,
and every straight cut of its runs is a recovery line.
"""

import pytest

from repro.bench.workloads import strip_checkpoints
from repro.lang.programs import jacobi
from repro.protocols import (
    ApplicationDrivenProtocol,
    ChandyLamportProtocol,
    SyncAndStopProtocol,
)
from repro.runtime import RuntimeCosts, Simulation

#: n -> (SaS, C-L) control messages over the 3 rounds.
CONTROL_MESSAGES = {4: (45, 45), 8: (105, 189), 16: (225, 765)}


def _run(program, n, protocol):
    result = Simulation(
        program, n, params={"steps": 10},
        costs=RuntimeCosts(control_latency=0.02), protocol=protocol,
    ).run()
    assert result.stats.completed
    return result


@pytest.mark.parametrize("n", sorted(CONTROL_MESSAGES))
def test_control_messages_grow_with_n_except_appl_driven(n):
    plain = strip_checkpoints(jacobi())
    sas = _run(plain, n, SyncAndStopProtocol(period=4.0))
    cl = _run(plain, n, ChandyLamportProtocol(period=4.0))
    assert (sas.stats.control_messages, cl.stats.control_messages) \
        == CONTROL_MESSAGES[n] == (3 * 5 * (n - 1), 3 * (n - 1) * (n + 1))
    appl = _run(jacobi(), n, ApplicationDrivenProtocol())
    assert appl.stats.control_messages == 0
    assert appl.trace.all_straight_cuts_consistent()
