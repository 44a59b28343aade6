#!/usr/bin/env python3
"""MPMD task farm: different programs per rank, one offline analysis.

The paper notes its approach extends to MPMD when all source files are
available. This example builds a coordinator/worker task farm from two
separate MiniMP programs, merges them with rank dispatch, runs the
offline pipeline (with a *calibrated* cost model obtained by profiling
a short run, as Phase I prescribes), and validates recovery under a
crash — with the space-time diagram of the recovered run.

Run: ``python examples/mpmd_farm.py``
"""

from repro import FaultPlan, Simulation, to_source, verify_program
from repro.lang.mpmd import RankSet, Role, combine_mpmd
from repro.lang.parser import parse
from repro.phases.calibration import calibrate_cost_model
from repro.phases.placement import ensure_recovery_lines
from repro.protocols import ApplicationDrivenProtocol
from repro.viz import render_spacetime

COORDINATOR = """\
program coordinator():
    i = 0
    while i < steps:
        task = init(i)
        w = 1
        while w < nprocs:
            send(w, combine(task, w))
            w = w + 1
        w = 1
        while w < nprocs:
            r = recv(w)
            task = combine(task, r)
            w = w + 1
        checkpoint
        i = i + 1
"""

WORKER = """\
program worker():
    i = 0
    while i < steps:
        job = recv(0)
        compute(4)
        send(0, relax(job, myrank))
        checkpoint
        i = i + 1
"""


def main() -> None:
    print("=== 1. Merge MPMD roles into one analysable program ===")
    combined = combine_mpmd(
        [
            Role(parse(COORDINATOR), RankSet.exact(0)),
            Role(parse(WORKER), RankSet.rest()),
        ],
        name="task_farm",
    )
    conservative = verify_program(combined).ok
    print(f"Condition 1 (conservative) on merged program: {conservative}")

    print("\n=== 2. Calibrate the cost model by profiling ===")
    report = calibrate_cost_model(
        combined, 4, params={"steps": 50}, profile_steps=2
    )
    print(f"messages observed : {report.messages_observed}")
    print(f"estimated delay   : {report.estimator.estimate:.3f} "
          f"(timeout bound {report.estimator.timeout:.3f})")

    print("\n=== 3. Repair the placement (Algorithm 3.2) ===")
    repaired = ensure_recovery_lines(combined)
    for move in repaired.moves:
        print(f"  - {move.description}")
    print(f"verified: {verify_program(repaired.program).ok}")
    print("\nFinal program:")
    print(to_source(repaired.program))

    print("=== 4. Crash a worker mid-run ===")
    baseline = Simulation(repaired.program, 4, params={"steps": 6}).run()
    crashed = Simulation(
        repaired.program,
        4,
        params={"steps": 6},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=FaultPlan.single(20.0, rank=3),
    ).run()
    print(f"completed: {crashed.stats.completed}, "
          f"control messages: {crashed.stats.control_messages}, "
          f"rollbacks: {crashed.stats.rollbacks}")
    print(f"final states identical to failure-free run: "
          f"{crashed.final_env == baseline.final_env}")
    print()
    print(render_spacetime(crashed.trace, width=76), end="")
    assert crashed.final_env == baseline.final_env


if __name__ == "__main__":
    main()
