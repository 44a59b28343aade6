"""Pretty-printer tests, including the parse/print round-trip property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import ast_equal, expr_to_source, to_source
from repro.lang.programs import load_program, program_names

from ..phases.generator import generate_exchange_program


class TestExpressionRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "myrank % 2 == 0",
            "-myrank + 1",
            "not a == b",
            "a == 1 or b == 2 and c == 3",
            "(a or b) and c",
            "combine(x, input(noise))",
            "(myrank + 1) % nprocs",
            "10 - 4 - 3",
            "10 - (4 - 3)",
            "min(a, max(b, c))",
        ],
    )
    def test_expression_round_trip(self, text):
        def reparse(t):
            return parse(f"program t():\n    x = {t}\n").body.statements[0].value

        original = reparse(text)
        rendered = expr_to_source(original)
        assert ast_equal(original, reparse(rendered))

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(not x) + 1", "(not x) + 1"),
            ("(a < b) < c", "(a < b) < c"),
            ("x * (not y)", "x * (not y)"),
            ("(not a) == b", "(not a) == b"),
            ("a < (b < c)", "a < (b < c)"),
            ("not not a", "not (not a)"),
            ("a and not b or not c", "a and not b or not c"),
        ],
    )
    def test_not_and_nested_comparisons_keep_their_parentheses(
        self, text, printed
    ):
        expr = parse(f"program t():\n    x = {text}\n").body.statements[0].value
        assert expr_to_source(expr) == printed

    def test_true_false_render_as_ints(self):
        expr = parse("program t():\n    x = True\n").body.statements[0].value
        assert expr_to_source(expr) == "1"


class TestProgramRendering:
    @pytest.mark.parametrize("name", program_names())
    def test_shipped_programs_round_trip(self, name):
        program = load_program(name)
        assert ast_equal(program, parse(to_source(program)))

    def test_empty_block_renders_pass(self):
        program = parse("program t():\n    if myrank == 0:\n        x = 1\n")
        source = to_source(program)
        # The empty else block disappears; re-parsing must still work.
        assert ast_equal(program, parse(source))

    def test_output_ends_with_newline(self):
        program = load_program("jacobi")
        assert to_source(program).endswith("\n")

    def test_checkpoint_renders_bare(self):
        program = parse("program t():\n    checkpoint\n")
        assert "checkpoint" in to_source(program).splitlines()[1].strip()


class TestAstEqual:
    def test_ignores_node_ids_and_lines(self):
        a = parse("program t():\n    x = 1\n")
        b = parse("program t():\n\n    x = 1\n")
        assert ast_equal(a, b)

    def test_detects_value_difference(self):
        a = parse("program t():\n    x = 1\n")
        b = parse("program t():\n    x = 2\n")
        assert not ast_equal(a, b)

    def test_detects_structural_difference(self):
        a = parse("program t():\n    x = 1\n")
        b = parse("program t():\n    x = 1\n    y = 2\n")
        assert not ast_equal(a, b)

    def test_detects_type_difference(self):
        a = parse("program t():\n    checkpoint\n")
        b = parse("program t():\n    pass\n")
        assert not ast_equal(a, b)


BINARY_OPS = ["or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*",
              "/", "//", "%"]

leaves = st.one_of(
    st.builds(ast.Const, value=st.integers(min_value=0, max_value=99)),
    st.builds(ast.Name, ident=st.sampled_from(["a", "b"])),
    st.builds(ast.MyRank),
    st.builds(ast.NProcs),
    st.builds(ast.InputData, label=st.just("noise")),
)


def _nodes_over(deep, shallow):
    """Expression nodes with at least one child drawn from *deep*."""
    ops = st.sampled_from(BINARY_OPS)
    return st.one_of(
        st.builds(ast.BinOp, op=ops, left=deep, right=shallow),
        st.builds(ast.BinOp, op=ops, left=shallow, right=deep),
        st.builds(ast.UnaryOp, op=st.sampled_from(["not", "-"]), operand=deep),
        st.builds(
            lambda func, head, tail: ast.Call(func=func, args=[*head, *tail]),
            st.sampled_from(["min", "max"]),
            st.lists(shallow, max_size=1),
            st.lists(deep, min_size=1, max_size=2),
        ),
    )


def deep_expressions(depth):
    """Expression trees at least *depth* nodes deep, over every binary
    operator, ``not``, unary minus and calls."""
    shallow = st.recursive(
        leaves, lambda inner: _nodes_over(inner, inner), max_leaves=4
    )
    tree = shallow
    for _ in range(depth):
        tree = _nodes_over(tree, shallow)
    return tree


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(expr=deep_expressions(4))
    def test_expression_trees_round_trip(self, expr):
        program = ast.Program(
            name="t", body=ast.Block(statements=[ast.Assign(target="x", value=expr)])
        )
        once = to_source(program)
        reparsed = parse(once)
        assert ast_equal(program, reparsed), once
        assert to_source(reparsed) == once

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        position=st.sampled_from(["head", "split"]),
    )
    def test_generated_programs_round_trip(self, seed, position):
        program = generate_exchange_program(seed, checkpoint_position=position)
        assert ast_equal(program, parse(to_source(program)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_print_is_idempotent(self, seed):
        program = generate_exchange_program(seed)
        once = to_source(program)
        twice = to_source(parse(once))
        assert once == twice
