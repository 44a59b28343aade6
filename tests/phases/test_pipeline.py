"""End-to-end transform() pipeline tests."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError, PlacementError
from repro.lang import ast_nodes as ast
from repro.lang.programs import jacobi, jacobi_odd_even, jacobi_plain
from repro.phases.insertion import CostModel
from repro.phases.pipeline import transform
from repro.phases.verification import verify_program

from ..attributes.program_strategies import grammar_programs


class TestTransform:
    def test_plain_program_gets_phase1(self):
        result = transform(
            jacobi_plain(),
            cost_model=CostModel(
                checkpoint_overhead=2.0, failure_rate=0.1, params={"steps": 10}
            ),
        )
        assert result.insertion is not None
        assert ast.count_statements(result.program, ast.Checkpoint) >= 1

    def test_checkpointed_program_skips_phase1(self):
        result = transform(jacobi_odd_even())
        assert result.insertion is None

    def test_force_insertion(self):
        result = transform(
            jacobi(),
            cost_model=CostModel(
                checkpoint_overhead=2.0, failure_rate=0.1, params={"steps": 10}
            ),
            force_insertion=True,
        )
        assert result.insertion is not None

    def test_output_always_verifies(self):
        for make in (jacobi, jacobi_odd_even, jacobi_plain):
            result = transform(
                make(),
                cost_model=CostModel(
                    checkpoint_overhead=2.0,
                    failure_rate=0.1,
                    params={"steps": 10},
                ),
            )
            assert result.verification.ok
            assert verify_program(result.program).ok

    def test_transformed_plain_program_is_simulation_safe(self):
        result = transform(
            jacobi_plain(),
            cost_model=CostModel(
                checkpoint_overhead=2.0, failure_rate=0.1, params={"steps": 10}
            ),
        )
        from repro.runtime import Simulation

        run = Simulation(result.program, 4, params={"steps": 6}).run()
        assert run.stats.completed
        assert run.trace.all_straight_cuts_consistent()

    def test_loop_optimization_flag_propagates(self):
        result = transform(jacobi_odd_even(), loop_optimization=True)
        assert result.placement.ordering_constraints

    def test_input_never_mutated(self):
        import copy

        from repro.lang.printer import ast_equal

        source = jacobi_odd_even()
        before = copy.deepcopy(source)
        transform(source)
        assert ast_equal(source, before)


class TestVerificationIsPhaseThreesLastCheck:
    """Phase IV reuses Phase III's last, ok, Condition 1 check: on the
    same extended CFG and back-edge setting an ok check never stops at a
    first violation, so it equals a fresh full check."""

    @staticmethod
    def agree(program, loop_optimization):
        from repro.phases.verification import check_condition1

        result = transform(program, loop_optimization=loop_optimization)
        assert result.verification == check_condition1(
            result.placement.extended,
            include_back_edge_paths=not loop_optimization,
        )
        return result

    @pytest.mark.parametrize("loop_optimization", [False, True])
    def test_on_every_shipped_program(self, loop_optimization):
        from repro.lang.programs import load_program, program_names

        names = program_names()
        assert len(names) == 14
        for name in names:
            self.agree(load_program(name), loop_optimization)

    @settings(max_examples=40, deadline=None)
    @given(program=grammar_programs(), loop_optimization=st.booleans())
    def test_on_grammar_programs(self, program, loop_optimization):
        try:
            self.agree(program, loop_optimization)
        except (MatchingError, PlacementError):
            assume(False)  # the grammar also draws unmatched programs
