"""AST traversal helpers, builtins, and the program library."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.lang import ast_nodes as ast
from repro.lang.builtins import BUILTINS, call_builtin
from repro.lang.compile import compile_program
from repro.lang.parser import parse
from repro.lang.programs import (
    load_program,
    program_names,
    program_source,
)


class TestWalk:
    def test_walk_yields_all_statements(self):
        program = parse(
            "program t():\n"
            "    x = 1\n"
            "    while i < 2:\n"
            "        if myrank == 0:\n"
            "            send(1, x)\n"
            "        else:\n"
            "            y = recv(0)\n"
        )
        kinds = [type(n).__name__ for n in ast.walk(program)]
        for expected in ("Program", "Block", "Assign", "While", "If", "Send", "Recv"):
            assert expected in kinds

    def test_walk_includes_expressions(self):
        program = parse("program t():\n    x = myrank + nprocs\n")
        kinds = {type(n).__name__ for n in ast.walk(program)}
        assert {"MyRank", "NProcs", "BinOp"} <= kinds

    def test_count_statements(self):
        program = load_program("jacobi")
        assert ast.count_statements(program, ast.Checkpoint) == 1
        assert ast.count_statements(program, ast.Send) == 2
        assert ast.count_statements(program, ast.Recv) == 2

    def test_count_with_tuple(self):
        program = load_program("jacobi")
        total = ast.count_statements(program, (ast.Send, ast.Recv))
        assert total == 4

    def test_block_len_and_iter(self):
        program = parse("program t():\n    x = 1\n    y = 2\n")
        assert len(program.body) == 2
        assert [s.target for s in program.body] == ["x", "y"]


class TestBuiltins:
    def test_min_max_abs(self):
        assert call_builtin("min", [3, 1, 2]) == 1
        assert call_builtin("max", [3, 1, 2]) == 3
        assert call_builtin("abs", [-5]) == 5

    def test_mixers_are_deterministic(self):
        for name in ("init", "combine", "relax"):
            assert call_builtin(name, [7, 9]) == call_builtin(name, [7, 9])

    def test_mixers_depend_on_arguments(self):
        assert call_builtin("combine", [1, 2]) != call_builtin("combine", [2, 1])

    def test_mixers_distinct_per_function(self):
        assert call_builtin("init", [5]) != call_builtin("relax", [5])

    def test_results_bounded(self):
        for name in BUILTINS:
            value = call_builtin(name, [123, 456][: 2 if name != "abs" else 1])
            assert 0 <= abs(value) < 2**31

    def test_unknown_builtin_raises(self):
        with pytest.raises(SimulationError, match="unknown builtin"):
            call_builtin("frobnicate", [1])


@lru_cache(maxsize=None)
def kernel_statement(name: str, arity: int):
    """``y = name(p0, ...)`` lowered for one rank: a fused statement."""
    args = ", ".join(f"p{index}" for index in range(arity))
    program = parse(f"program t():\n    y = {name}({args})\n")
    return compile_program(program, 1)


def fused_kernel(name: str, *args: int) -> int:
    compiled = kernel_statement(name, len(args))
    process = compiled.bind(
        0, {f"p{index}": value for index, value in enumerate(args)}
    )
    assert compiled.code[process._pc].__name__ == "mix_assign"
    process.step()
    return process.env["y"]


class TestKernelMixers:
    """The fused statement mixes exactly like the builtin it replaces."""

    #: Taken from the builtins before statements were fused: a changed
    #: seed, multiplier or mask fails here.
    GOLDEN = (
        ("combine", (1, 2), 1500977594),
        ("relax", (-5, 2**40), 1060339635),
        ("init", (7,), 1944639237),
    )

    @pytest.mark.parametrize("name,args,expected", GOLDEN)
    def test_golden_values(self, name, args, expected):
        assert BUILTINS[name](*args) == expected
        assert fused_kernel(name, *args) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(("init", "combine", "relax")),
        args=st.lists(
            st.integers(min_value=-(2**70), max_value=2**70),
            min_size=1, max_size=3,
        ),
    )
    def test_fused_statement_equals_builtin(self, name, args):
        assert fused_kernel(name, *args) == BUILTINS[name](*args)


class TestProgramLibrary:
    def test_all_programs_parse(self):
        for name in program_names():
            program = load_program(name)
            assert program.name == name or program.name.startswith("jacobi")

    def test_load_returns_fresh_copies(self):
        a = load_program("jacobi")
        b = load_program("jacobi")
        assert a is not b
        a.body.statements.clear()
        assert len(b.body) > 0

    def test_unknown_program_raises_with_known_names(self):
        with pytest.raises(KeyError, match="jacobi"):
            load_program("nonexistent")

    def test_source_matches_parse(self):
        source = program_source("jacobi")
        assert "checkpoint" in source

    def test_plain_variant_has_no_checkpoints(self):
        program = load_program("jacobi_plain")
        assert ast.count_statements(program, ast.Checkpoint) == 0

    def test_odd_even_has_two_checkpoint_statements(self):
        program = load_program("jacobi_odd_even")
        assert ast.count_statements(program, ast.Checkpoint) == 2
