"""Phase I (static checkpoint insertion) tests."""

import pytest

from repro.cfg import build_cfg, index_checkpoints
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import ast_equal
from repro.phases.insertion import (
    CostModel,
    _InsertionWalker,
    insert_checkpoints,
)


def walk_cost(program: ast.Program, model: CostModel = CostModel()):
    """The cost walk's estimate of one run, inserting nothing."""
    walker = _InsertionWalker(model, interval=float("inf"))
    walker.walk_block(ast.clone(program.body))
    return walker.total_cost


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestCostModel:
    def test_interval_is_youngs_formula(self):
        model = CostModel(checkpoint_overhead=8.0, failure_rate=0.01)
        assert model.interval() == pytest.approx((2 * 8.0 / 0.01) ** 0.5)

    def test_compute_cost_uses_literal(self):
        cost = walk_cost(program("compute(7)"))
        assert cost == pytest.approx(7.0)

    def test_message_statements_cost_delay(self):
        model = CostModel(message_delay=9.0, local_statement=1.0)
        cost = walk_cost(program("send(0, 1)"), model)
        assert cost == pytest.approx(10.0)

    def test_loop_cost_multiplied_by_trips(self):
        cost = walk_cost(
            program("for k in range(5):\n    compute(2)")
        )
        assert cost == pytest.approx(10.0)

    def test_while_idiom_bound_recognised(self):
        model = CostModel(params={"steps": 4}, local_statement=0.0)
        cost = walk_cost(
            program("i = 0\nwhile i < steps:\n    compute(3)\n    i = i + 1"),
            model,
        )
        # ~5 trips of cost 3 (bound + 1 for the idiom recognizer)
        assert cost >= 12.0

    def test_if_costs_max_of_branches(self):
        cost = walk_cost(
            program("if myrank == 0:\n    compute(10)\nelse:\n    compute(2)")
        )
        assert cost == pytest.approx(10.0)

    def test_unknown_loop_uses_default_trips(self):
        model = CostModel(default_loop_trips=3, local_statement=0.0)
        cost = walk_cost(
            program("while input(x) > 0:\n    compute(2)"), model
        )
        assert cost == pytest.approx(6.0)


class TestInsertion:
    def test_input_never_mutated(self):
        source = program("compute(100)\ncompute(100)")
        import copy

        before = copy.deepcopy(source)
        insert_checkpoints(source, CostModel(checkpoint_overhead=1, failure_rate=0.1))
        assert ast_equal(source, before)

    def test_straight_line_insertion(self):
        model = CostModel(checkpoint_overhead=2.0, failure_rate=0.1)  # T* ~ 6.3
        plan = insert_checkpoints(
            program("compute(5)\ncompute(5)\ncompute(5)\ncompute(5)"), model
        )
        assert plan.inserted >= 2
        assert ast.count_statements(plan.program, ast.Checkpoint) == plan.inserted

    def test_cheap_program_gets_no_checkpoints(self):
        model = CostModel(checkpoint_overhead=100.0, failure_rate=1e-6)
        plan = insert_checkpoints(program("compute(1)"), model)
        assert plan.inserted == 0

    def test_expensive_loop_body_checkpointed_inside(self):
        model = CostModel(checkpoint_overhead=2.0, failure_rate=0.1)  # T* ~ 6.3
        plan = insert_checkpoints(
            program("i = 0\nwhile i < 50:\n    compute(20)\n    i = i + 1"),
            model,
        )
        loop = next(
            s for s in plan.program.body.statements if isinstance(s, ast.While)
        )
        assert ast.count_statements(loop, ast.Checkpoint) >= 1

    def test_cheap_loop_body_checkpoint_at_head(self):
        # Body cost < T* but the loop total spans many intervals: a
        # checkpoint belongs at the body head.
        model = CostModel(checkpoint_overhead=10.0, failure_rate=0.05)  # T* = 20
        plan = insert_checkpoints(
            program("i = 0\nwhile i < 100:\n    compute(5)\n    i = i + 1"),
            model,
        )
        loop = next(
            s for s in plan.program.body.statements if isinstance(s, ast.While)
        )
        assert isinstance(loop.body.statements[0], ast.Checkpoint)

    def test_result_is_balanced(self):
        model = CostModel(checkpoint_overhead=2.0, failure_rate=0.1)
        plan = insert_checkpoints(
            program(
                "if myrank == 0:\n    compute(30)\nelse:\n    compute(1)\n"
                "compute(30)"
            ),
            model,
        )
        assert index_checkpoints(build_cfg(plan.program)).balanced

    def test_balance_adds_to_lighter_branch(self):
        model = CostModel(checkpoint_overhead=2.0, failure_rate=0.1)
        plan = insert_checkpoints(
            program("if myrank == 0:\n    compute(50)\nelse:\n    compute(1)"),
            model,
        )
        assert plan.balance_added >= 1
        assert index_checkpoints(build_cfg(plan.program)).balanced

    def test_existing_checkpoints_reset_interval(self):
        model = CostModel(checkpoint_overhead=2.0, failure_rate=0.1)  # T* ~ 6.3
        plan = insert_checkpoints(
            program("compute(5)\ncheckpoint\ncompute(5)"), model
        )
        # the explicit checkpoint resets the accumulator; at most one new
        total = ast.count_statements(plan.program, ast.Checkpoint)
        assert total <= 3

    def test_plan_reports_estimate(self):
        plan = insert_checkpoints(program("compute(12)"))
        assert plan.estimated_cost >= 12.0
