#!/usr/bin/env python3
"""The paper's running example, end to end (Figures 1-4).

Shows the full Section 2/3 narrative on real artifacts:

- the Figure 1 Jacobi program and its CFG (printed as Graphviz DOT);
- the Figure 2 odd/even variant, its extended CFG with message edges,
  and the Condition 1 violation (the exact offending path);
- an execution of the unsafe variant exhibiting the Figure 3
  inconsistent straight cut, with the orphan message as witness;
- Algorithm 3.2 repairing Figure 2 into (structurally) Figure 1, in
  both conservative and loop-optimised modes.

Run: ``python examples/jacobi_transform.py``
"""

from repro import check_condition1, ensure_recovery_lines, to_source
from repro.causality.cuts import cut_is_consistent, orphan_messages
from repro.cfg import to_dot
from repro.lang.printer import ast_equal
from repro.lang.programs import jacobi, jacobi_odd_even
from repro.phases.matching import build_extended_cfg
from repro.runtime import Simulation


def main() -> None:
    print("=== Figure 1: the safe Jacobi program ===")
    safe = jacobi()
    print(to_source(safe))
    verdict = check_condition1(build_extended_cfg(safe))
    print(f"Condition 1 holds: {verdict.ok}")

    print("\n=== Figure 2: the odd/even variant ===")
    unsafe = jacobi_odd_even()
    print(to_source(unsafe))

    print("=== Figure 4: its extended CFG (message edges dashed) ===")
    ext = build_extended_cfg(unsafe)
    print(to_dot(ext, name="figure4"))

    verdict = check_condition1(ext)
    print(f"Condition 1 holds: {verdict.ok}")
    violation = verdict.violations[0]
    print(f"offending path (S_{violation.index}): "
          + " -> ".join(repr(ext.cfg.node(n)) for n in violation.path))

    print("\n=== Figure 3: an execution with an inconsistent straight cut ===")
    trace = Simulation(unsafe, 4, params={"steps": 4}).run().trace
    for index, cut in enumerate(trace.all_straight_cuts(), 1):
        consistent = cut_is_consistent(cut)
        print(f"R_{index}: recovery line = {consistent}")
        if not consistent:
            send, recv = orphan_messages(trace.events, cut)[0]
            print(f"  orphan witness: {send!r} received as {recv!r}")
            break

    print("\n=== Algorithm 3.2: conservative repair ===")
    repaired = ensure_recovery_lines(unsafe)
    for move in repaired.moves:
        print(f"  - {move.description}")
    print(f"result structurally equals Figure 1: "
          f"{ast_equal(repaired.program.body, jacobi().body)}")

    print("\n=== Algorithm 3.2: loop-optimised repair ===")
    optimised = ensure_recovery_lines(unsafe, loop_optimization=True)
    for move in optimised.moves:
        print(f"  - {move.description}")
    print(f"ordering constraints: {len(optimised.ordering_constraints)}")
    print(to_source(optimised.program))

    for variant in (repaired.program, optimised.program):
        trace = Simulation(variant, 4, params={"steps": 4}).run().trace
        assert trace.all_straight_cuts_consistent()
    print("both repaired variants empirically safe.")


if __name__ == "__main__":
    main()
