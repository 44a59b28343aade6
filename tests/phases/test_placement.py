"""Phase III (Algorithm 3.2 checkpoint motion) tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import ast_equal
from repro.lang.programs import jacobi, jacobi_odd_even, ring_unsafe
from repro.phases.placement import ensure_recovery_lines
from repro.phases.verification import verify_program

from .generator import generate_exchange_program


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestFigure2Repair:
    def test_conservative_mode_yields_figure1(self):
        """The headline example: Algorithm 3.2 turns the Figure 2
        program into exactly the Figure 1 program."""
        result = ensure_recovery_lines(jacobi_odd_even())
        assert ast_equal(result.program.body, jacobi().body)

    def test_moves_recorded(self):
        result = ensure_recovery_lines(jacobi_odd_even())
        assert len(result.moves) >= 2

    def test_output_verifies(self):
        result = ensure_recovery_lines(jacobi_odd_even())
        assert result.verification is not None and result.verification.ok
        assert verify_program(result.program).ok

    def test_input_not_mutated(self):
        source = jacobi_odd_even()
        import copy

        before = copy.deepcopy(source)
        ensure_recovery_lines(source)
        assert ast_equal(source, before)

    def test_loop_optimization_keeps_in_branch_checkpoints(self):
        result = ensure_recovery_lines(jacobi_odd_even(), loop_optimization=True)
        # checkpoints stay inside the if branches (minimal motion)
        loop = next(
            s for s in result.program.body.statements if isinstance(s, ast.While)
        )
        branch = next(
            s for s in loop.body.statements if isinstance(s, ast.If)
        )
        assert isinstance(branch.then_block.statements[0], ast.Checkpoint)
        assert isinstance(branch.else_block.statements[0], ast.Checkpoint)

    def test_loop_optimization_emits_ordering_constraints(self):
        result = ensure_recovery_lines(jacobi_odd_even(), loop_optimization=True)
        assert result.ordering_constraints
        assert verify_program(
            result.program, include_back_edge_paths=False
        ).ok


class TestOtherRepairs:
    def test_ring_unsafe_repaired(self):
        result = ensure_recovery_lines(ring_unsafe())
        assert verify_program(result.program).ok

    def test_already_safe_program_untouched(self):
        result = ensure_recovery_lines(jacobi())
        assert result.moves == ()
        assert ast_equal(result.program, jacobi())

    def test_checkpoint_count_preserved_or_merged(self):
        before = ast.count_statements(jacobi_odd_even(), ast.Checkpoint)
        result = ensure_recovery_lines(jacobi_odd_even())
        after = ast.count_statements(result.program, ast.Checkpoint)
        assert 1 <= after <= before

    def test_non_loop_split_checkpoints_merged(self):
        source = program(
            "if myrank % 2 == 0:\n"
            "    checkpoint\n"
            "    send(myrank + 1, 1)\n"
            "    y = recv(myrank + 1)\n"
            "else:\n"
            "    y = recv(myrank - 1)\n"
            "    send(myrank - 1, 2)\n"
            "    checkpoint\n"
        )
        result = ensure_recovery_lines(source)
        assert verify_program(result.program).ok

    def test_move_budget_enforced(self):
        with pytest.raises(PlacementError, match="moves"):
            ensure_recovery_lines(jacobi_odd_even(), max_moves=0)


class TestSemanticPreservation:
    """Checkpoint motion must never change program results."""

    @pytest.mark.parametrize("make", [jacobi_odd_even, ring_unsafe])
    def test_final_states_unchanged(self, make):
        from repro.runtime import Simulation

        original = make()
        fixed = ensure_recovery_lines(original).program
        env_a = Simulation(original, 4, params={"steps": 4}).run().final_env
        env_b = Simulation(fixed, 4, params={"steps": 4}).run().final_env
        assert env_a == env_b

    def test_message_statements_never_move(self):
        source = jacobi_odd_even()
        result = ensure_recovery_lines(source)
        def message_shape(prog):
            return [
                (type(n).__name__, n.line)
                for n in ast.walk(prog)
                if isinstance(n, (ast.Send, ast.Recv))
            ]
        assert message_shape(source) == message_shape(result.program)


class TestPropertyRepair:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_generated_unsafe_programs_always_repaired(self, seed):
        source = generate_exchange_program(seed, checkpoint_position="split")
        result = ensure_recovery_lines(source)
        assert verify_program(result.program).ok

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_generated_safe_programs_need_no_moves(self, seed):
        source = generate_exchange_program(seed, checkpoint_position="head")
        result = ensure_recovery_lines(source)
        assert result.moves == ()


class TestLivenessOnRead:
    """Only the placement report reads checkpoint liveness, so neither
    Phase III nor a transform-cache hit may compute it."""

    @staticmethod
    def _count_liveness(monkeypatch) -> list:
        from repro.attributes import liveness
        from repro.phases import placement

        calls = []
        real = liveness.checkpoint_liveness

        def counting(program):
            calls.append(program)
            return real(program)

        monkeypatch.setattr(liveness, "checkpoint_liveness", counting)
        monkeypatch.setattr(placement, "checkpoint_liveness", counting)
        return calls

    def test_placement_computes_liveness_once_when_read(self, monkeypatch):
        calls = self._count_liveness(monkeypatch)
        result = ensure_recovery_lines(jacobi_odd_even())
        assert calls == []
        live, dead = result.checkpoint_live, result.checkpoint_dead
        assert result.checkpoint_live is live
        assert result.checkpoint_dead is dead
        assert calls == [result.program]
        for stmt_id in live:
            assert not live[stmt_id] & dead[stmt_id]

    def test_cache_hit_computes_no_liveness(self, monkeypatch, tmp_path):
        from repro.campaign.cache import TransformCache
        from repro.phases.pipeline import transform

        cache = TransformCache(tmp_path)
        transform(jacobi_odd_even(), cache=cache)
        calls = self._count_liveness(monkeypatch)
        cached = transform(jacobi_odd_even(), cache=cache)
        assert cache.hits == 1
        assert calls == []
        assert cached.placement.checkpoint_live
        assert len(calls) == 1
