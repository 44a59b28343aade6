"""V1/V2 over the second generated program family (rings)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phases import ensure_recovery_lines, verify_program
from repro.runtime import Simulation

from ..phases.generator import generate_ring_program


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    n=st.sampled_from([2, 3, 5]),
)
def test_safe_ring_placements(seed, n):
    program = generate_ring_program(seed, checkpoint_position="head")
    assert verify_program(program).ok
    trace = Simulation(program, n, params={"steps": 4}).run().trace
    assert trace.all_straight_cuts_consistent()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_unsafe_ring_placements_detected(seed):
    program = generate_ring_program(seed, checkpoint_position="split")
    assert not verify_program(program).ok
    trace = Simulation(program, 4, params={"steps": 4}).run().trace
    assert not trace.all_straight_cuts_consistent()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_ring_repair(seed):
    program = generate_ring_program(seed, checkpoint_position="split")
    repaired = ensure_recovery_lines(program)
    assert verify_program(repaired.program).ok
    result = Simulation(repaired.program, 5, params={"steps": 4}).run()
    assert result.trace.all_straight_cuts_consistent()
    original = Simulation(program, 5, params={"steps": 4}).run()
    assert result.final_env == original.final_env
