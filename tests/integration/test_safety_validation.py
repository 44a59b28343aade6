"""V1/V2: empirical validation of Theorem 3.2 on random programs.

The central soundness claim of the whole reproduction: for randomly
generated exchange programs,

- static verdict SAFE  ⟹  every straight cut of every simulated
  execution is a consistent recovery line;
- static verdict UNSAFE ⟹ the simulated execution exhibits an
  inconsistent straight cut (the necessity direction on this program
  family); and
- Phase III repair turns every unsafe program into a safe one without
  changing program results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phases import ensure_recovery_lines, verify_program
from repro.runtime import Simulation

from ..phases.generator import generate_exchange_program

SIM_KWARGS = dict(params={"steps": 4})


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_safe_placements_yield_recovery_lines(seed):
    program = generate_exchange_program(seed, checkpoint_position="head")
    assert verify_program(program).ok
    for n in (2, 4):
        trace = Simulation(program, n, **SIM_KWARGS).run().trace
        assert trace.all_straight_cuts_consistent()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_unsafe_placements_detected_and_witnessed(seed):
    program = generate_exchange_program(seed, checkpoint_position="split")
    assert not verify_program(program).ok
    trace = Simulation(program, 4, **SIM_KWARGS).run().trace
    assert not trace.all_straight_cuts_consistent()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_repair_restores_safety_and_semantics(seed):
    program = generate_exchange_program(seed, checkpoint_position="split")
    repaired = ensure_recovery_lines(program).program
    assert verify_program(repaired).ok
    trace_fixed = Simulation(repaired, 4, **SIM_KWARGS).run()
    assert trace_fixed.trace.all_straight_cuts_consistent()
    original = Simulation(program, 4, **SIM_KWARGS).run()
    assert trace_fixed.final_env == original.final_env


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.sampled_from([2, 4, 6]),
)
def test_static_and_dynamic_verdicts_agree(seed, n):
    """The iff of Theorem 3.2, on this program family."""
    for position in ("head", "split"):
        program = generate_exchange_program(seed, checkpoint_position=position)
        static_ok = verify_program(program).ok
        trace = Simulation(program, n, **SIM_KWARGS).run().trace
        dynamic_ok = trace.all_straight_cuts_consistent()
        if static_ok:
            assert dynamic_ok
        else:
            # necessity holds on 4+ processes; with n == 2 some unsafe
            # placements can still be accidentally consistent
            if n >= 4:
                assert not dynamic_ok


def test_loop_optimized_placements_safe_dynamically():
    """Loop-optimisation mode keeps per-branch checkpoints; the
    dynamic-index straight cuts must still be recovery lines."""
    from repro.lang.programs import jacobi_odd_even

    result = ensure_recovery_lines(jacobi_odd_even(), loop_optimization=True)
    trace = Simulation(result.program, 4, params={"steps": 5}).run().trace
    assert trace.all_straight_cuts_consistent()


def test_ordering_constraints_hold_in_executions():
    """The paper's loop-optimisation ordering guarantee, checked on the
    trace: for every constraint (earlier, later) and every index i, the
    i-th instance due to `earlier` completes before the i-th instance
    due to `later` is *depended upon* — equivalently, the straight cut
    pairing them is consistent, which the previous test asserts; here
    we additionally check the constraint endpoints are real nodes."""
    from repro.lang.programs import jacobi_odd_even
    from repro.phases.matching import build_extended_cfg
    from repro.phases.verification import loop_ordering_constraints

    result = ensure_recovery_lines(jacobi_odd_even(), loop_optimization=True)
    ext = build_extended_cfg(result.program)
    for constraint in loop_ordering_constraints(ext):
        assert constraint.earlier in ext.cfg
        assert constraint.later in ext.cfg
