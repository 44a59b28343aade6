#!/usr/bin/env python3
"""Quickstart: transform a program, validate safety, survive a crash.

Walks the full lifecycle on an unsafe program:

1. parse MiniMP source whose checkpoint placement breaks straight cuts;
2. show the static verdict (Condition 1 violated);
3. run Phase III (Algorithm 3.2) and print the repaired source;
4. simulate the repaired program with a mid-run crash and confirm the
   coordination-free recovery reaches the same final state as a
   failure-free run.

Run: ``python examples/quickstart.py``
"""

from repro import (
    FaultPlan,
    Simulation,
    parse,
    to_source,
    transform,
    verify_program,
)
from repro.protocols import ApplicationDrivenProtocol

SOURCE = """\
program heat_exchange():
    x = init(myrank)
    i = 0
    while i < steps:
        if myrank % 2 == 0:
            send(myrank + 1, x)
            y = recv(myrank + 1)
            checkpoint
        else:
            y = recv(myrank - 1)
            send(myrank - 1, x)
            checkpoint
        x = combine(x, y)
        i = i + 1
"""


def main() -> None:
    program = parse(SOURCE)

    print("=== 1. Static verdict on the original program ===")
    verdict = verify_program(program)
    print(f"Condition 1 holds: {verdict.ok}")
    for violation in verdict.violations[:2]:
        print(f"  violating path: {violation.describe_short()}"
              if hasattr(violation, "describe_short")
              else f"  violation in S_{violation.index}")

    print("\n=== 2. Offline transformation (Phases I-III) ===")
    result = transform(program)
    print(f"moves performed: {len(result.placement.moves)}")
    for move in result.placement.moves:
        print(f"  - {move.description}")
    print("\nTransformed source:")
    print(to_source(result.program))

    print("=== 3. Crash-recovery simulation ===")
    baseline = Simulation(result.program, 4, params={"steps": 8}).run()
    crashed = Simulation(
        result.program,
        4,
        params={"steps": 8},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=FaultPlan.single(9.5, rank=2),
    ).run()
    print(f"failure-free completion time : {baseline.completion_time:8.2f}")
    print(f"with crash + recovery        : {crashed.completion_time:8.2f}")
    print(f"control messages             : {crashed.stats.control_messages}")
    print(f"forced checkpoints           : {crashed.stats.forced_checkpoints}")
    print(f"rollbacks                    : {crashed.stats.rollbacks}")
    same = crashed.final_env == baseline.final_env
    print(f"final states identical       : {same}")
    assert same and crashed.stats.control_messages == 0
    print("\nCoordination-free recovery verified.")


if __name__ == "__main__":
    main()
