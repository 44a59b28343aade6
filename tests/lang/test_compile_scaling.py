"""Allocation guard: binding a rank costs its state, not the program.

The lowered program owns the one instruction table; ``bind(rank)``
allocates a register file, a binding-order list and a loop stack. These
tests count GC-tracked objects with the collector off — counts, not
seconds, so they cannot flake — and pin that the per-rank cost neither
depends on program length nor creeps back towards one closure per
instruction per rank. A hot statement executes as one fused closure
and is lowered once; those are pinned by call counts.
"""

import gc
import sys

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.builtins import BUILTINS
from repro.lang.compile import CompiledProgram, compile_program
from repro.lang.parser import parse
from repro.lang.programs import load_program
from repro.runtime import Simulation
from repro.runtime.inputs import InputProvider

from ..shipped_params import default_params


def tracked_objects_allocated_by(action) -> int:
    """GC-tracked objects alive after *action()* that were not before."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = action()
        after = len(gc.get_objects())
    finally:
        gc.enable()
    del result
    return after - before


def straight_line_program(statements: int):
    body = "\n".join(
        f"    v{i} = combine(v{max(i - 1, 0)}, myrank + {i})"
        for i in range(1, statements)
    )
    return parse(f"program t():\n    v0 = init(myrank)\n{body}\n")


class TestBindAllocatesStateOnly:
    @pytest.mark.parametrize("rank", (0, 5))
    def test_bind_cost_is_small_and_independent_of_length(self, rank):
        inputs = InputProvider()
        counts = []
        for statements in (4, 40):
            compiled = compile_program(straight_line_program(statements), 8)
            counts.append(tracked_objects_allocated_by(
                lambda: compiled.bind(rank, {"steps": 3}, inputs)
            ))
        assert counts[0] == counts[1]
        assert counts[0] <= 8

    def test_bound_process_holds_no_code_of_its_own(self):
        compiled = compile_program(straight_line_program(4), 2)
        first, second = compiled.bind(0), compiled.bind(1)
        assert first._code is second._code is compiled.code
        assert not hasattr(first, "__dict__")


def test_simulation_construction_is_light_per_rank():
    program = load_program("stencil_halo")
    n = 192
    allocated = tracked_objects_allocated_by(
        lambda: Simulation(program, n, params=default_params("stencil_halo"))
    )
    assert allocated / n <= 200


#: The expression node types ``CompiledProgram._lower_expr`` lowers.
EXPRESSIONS = (
    ast.Const, ast.Name, ast.MyRank, ast.NProcs, ast.InputData,
    ast.BinOp, ast.UnaryOp, ast.Call,
)


def python_calls_in(action) -> list[str]:
    """Names of the Python functions *action()* calls, in call order."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


class TestFusedStatements:
    """Call counts, not seconds: a hot statement is one closure call."""

    def test_one_python_call_below_step_local(self):
        program = parse(
            "program t():\n"
            "    v0 = init(myrank)\n"
            "    v1 = combine(v0, myrank + 1)\n"
            "    v2 = v1 + 1\n"
        )
        process = compile_program(program, 4).bind(1)
        assert process.step_local()
        for _ in ("v1 = combine(v0, myrank + 1)", "v2 = v1 + 1"):
            calls = python_calls_in(process.step_local)
            assert calls[0] == "step_local"
            assert len(calls) == 2, calls
        assert process.env["v2"] == BUILTINS["combine"](
            BUILTINS["init"](1), 2
        ) + 1

    def test_selection_lowers_each_expression_once(self, monkeypatch):
        program = straight_line_program(40)
        lower = CompiledProgram._lower_expr
        lowered = []

        def counting(self, expr):
            lowered.append(expr.node_id)
            return lower(self, expr)

        monkeypatch.setattr(CompiledProgram, "_lower_expr", counting)
        compile_program(program, 8)
        expressions = [
            node.node_id for node in ast.walk(program)
            if isinstance(node, EXPRESSIONS)
        ]
        assert sorted(lowered) == sorted(expressions)
