"""Determinism and idempotence properties of the offline pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.printer import ast_equal, to_source
from repro.phases import ensure_recovery_lines, transform
from repro.phases.insertion import CostModel

from .generator import generate_exchange_program


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20_000))
def test_placement_is_deterministic(seed):
    program = generate_exchange_program(seed, checkpoint_position="split")
    first = ensure_recovery_lines(program)
    second = ensure_recovery_lines(program)
    assert ast_equal(first.program, second.program)
    assert [m.description for m in first.moves] == [
        m.description for m in second.moves
    ]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20_000))
def test_placement_is_idempotent(seed):
    program = generate_exchange_program(seed, checkpoint_position="split")
    once = ensure_recovery_lines(program)
    twice = ensure_recovery_lines(once.program)
    assert twice.moves == ()
    assert ast_equal(once.program, twice.program)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20_000))
def test_transform_round_trips_through_source(seed):
    """Transform, print, re-parse, re-verify: the printed artifact is a
    complete representation of the safe program."""
    from repro.lang.parser import parse
    from repro.phases.verification import verify_program

    program = generate_exchange_program(seed)
    result = transform(
        program,
        cost_model=CostModel(params={"steps": 8}),
    )
    reparsed = parse(to_source(result.program))
    assert verify_program(reparsed).ok


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=20_000),
    budget_scale=st.sampled_from([1, 3]),
)
def test_move_budget_independence(seed, budget_scale):
    """A larger budget never changes the result, only the headroom."""
    program = generate_exchange_program(seed, checkpoint_position="split")
    tight = ensure_recovery_lines(program)
    generous = ensure_recovery_lines(program, max_moves=200 * budget_scale)
    assert ast_equal(tight.program, generous.program)
