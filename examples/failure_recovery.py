#!/usr/bin/env python3
"""Failure storms and the domino effect.

Two experiments the paper motivates but cannot run analytically:

1. **Failure storm** — the application-driven protocol survives a
   random burst of crashes (exponential arrivals) with bounded
   rollback: every recovery restores the deepest common straight cut,
   never more than one checkpoint interval per process.
2. **Domino effect** — on a chatty ping-pong workload, uncoordinated
   checkpointing cascades past multiple checkpoints at recovery, while
   the application-driven placement never rolls back further than the
   latest straight cut.

Run: ``python examples/failure_recovery.py``
"""

from repro.bench.workloads import strip_checkpoints
from repro.lang.programs import pingpong, ring_pipeline
from repro.protocols import ApplicationDrivenProtocol, UncoordinatedProtocol
from repro.runtime import FaultPlan, Simulation
from repro.runtime.failures import exponential_fault_plan


def failure_storm() -> None:
    print("=== 1. Failure storm (application-driven) ===")
    program = ring_pipeline()
    baseline = Simulation(program, 5, params={"steps": 20}).run()
    plan = exponential_fault_plan(
        5, baseline.completion_time * 2, failure_rate=0.02,
        seed=11, max_failures=6,
    )
    print("crash schedule:",
          [(round(c.time, 1), f"P{c.rank}") for c in plan.effective()])
    protocol = ApplicationDrivenProtocol()
    stormy = Simulation(
        program, 5, params={"steps": 20},
        protocol=protocol, fault_plan=plan,
    ).run()
    print(f"failures applied      : {stormy.stats.failures}")
    print(f"rollbacks             : {stormy.stats.rollbacks}")
    print(f"recovered to cuts R_i : {protocol.recovered_to}")
    print(f"lost work             : {stormy.stats.lost_work:.2f}")
    print(f"completion time       : {stormy.completion_time:.2f} "
          f"(failure-free: {baseline.completion_time:.2f})")
    same = stormy.final_env == baseline.final_env
    print(f"final states identical: {same}")
    assert same


def domino() -> None:
    print("\n=== 2. Domino effect (uncoordinated vs application-driven) ===")
    chatty = pingpong()
    plan = FaultPlan.single(21.0, rank=1)

    uncoordinated = UncoordinatedProtocol(period=6, stagger=0.9)
    run_unc = Simulation(
        strip_checkpoints(chatty), 4, params={"steps": 60},
        protocol=uncoordinated, fault_plan=plan,
    ).run()
    depths = uncoordinated.rollback_depths[0]
    print(f"uncoordinated : domino steps = {uncoordinated.domino_steps[0]}, "
          f"per-process rollback depths = {depths}, "
          f"lost work = {run_unc.stats.lost_work:.2f}")

    appl = ApplicationDrivenProtocol()
    run_appl = Simulation(
        pingpong(), 4, params={"steps": 60},
        protocol=appl,
        fault_plan=FaultPlan.single(21.0, rank=1),
    ).run()
    print(f"appl-driven   : recovered to R_{appl.recovered_to[0]}, "
          f"lost work = {run_appl.stats.lost_work:.2f} "
          f"(never beyond the latest straight cut)")


def main() -> None:
    failure_storm()
    domino()


if __name__ == "__main__":
    main()
