"""V10: the Section 4 closed form and the simulator agree.

One process loops ``checkpoint; compute(10)`` for 30 steps under
exponential failures at λ = 0.004, with checkpoint overhead o = 1 and
recovery R = 2 (the model's latency L equals o: the simulator has one
checkpoint cost). Over 40 seeded trials the simulator measures the
overhead ratio r = Γ/T − 1 at 0.1315, against the closed form's 0.1336.
"""

import copy

from repro.analysis.overhead import overhead_ratio
from repro.lang.parser import parse
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import RuntimeCosts, Simulation
from repro.runtime.failures import exponential_fault_plan

WORK = 10.0
OVERHEAD = 1.0
RECOVERY = 2.0
LAMBDA = 0.004
STEPS = 30
TRIALS = 40

PROGRAM = parse(
    "program interval_loop():\n"
    "    i = 0\n"
    "    while i < steps:\n"
    "        checkpoint\n"
    "        compute(10)\n"
    "        i = i + 1\n"
)


def _measured_ratio() -> float:
    costs = RuntimeCosts(
        local_statement=0.0, compute_unit=1.0,
        checkpoint_overhead=OVERHEAD, recovery_overhead=RECOVERY,
    )
    horizon = 10 * STEPS * (WORK + OVERHEAD)
    total = 0.0
    for seed in range(TRIALS):
        result = Simulation(
            copy.deepcopy(PROGRAM), 1, params={"steps": STEPS}, costs=costs,
            protocol=ApplicationDrivenProtocol(),
            fault_plan=exponential_fault_plan(
                1, horizon, failure_rate=LAMBDA, seed=seed
            ),
        ).run()
        assert result.stats.completed
        total += result.completion_time
    return total / TRIALS / STEPS / WORK - 1.0


def test_simulated_overhead_ratio_matches_the_closed_form():
    analytic = overhead_ratio(
        failure_rate=LAMBDA, interval=WORK, total_overhead=OVERHEAD,
        recovery=RECOVERY, total_latency=OVERHEAD,
    )
    measured = _measured_ratio()
    assert (round(measured, 4), round(analytic, 4)) == (0.1315, 0.1336)
    assert abs(measured - analytic) / analytic < 0.02
