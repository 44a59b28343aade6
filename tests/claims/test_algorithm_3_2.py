"""Algorithm 3.2: the loop-optimised repair moves less (EXPERIMENTS.md).

On the Figure 2 program the conservative repair needs 4 moves. The
loop-optimised mode never hoists toward the loop head: it needs 2 and
records 2 ordering constraints instead. Both outputs verify.
"""

from repro.lang.programs import jacobi_odd_even
from repro.phases.placement import ensure_recovery_lines


def test_loop_optimised_repair_needs_2_moves_against_4():
    conservative = ensure_recovery_lines(jacobi_odd_even())
    optimised = ensure_recovery_lines(
        jacobi_odd_even(), loop_optimization=True
    )
    assert (len(optimised.moves), len(conservative.moves)) == (2, 4)
    assert len(optimised.ordering_constraints) == 2
    assert conservative.verification.ok and optimised.verification.ok
