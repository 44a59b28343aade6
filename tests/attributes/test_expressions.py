"""Abstract-evaluation tests, including agreement with the interpreter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes.expressions import abstract_eval
from repro.lang.parser import parse


def expr(text: str):
    return parse(f"program t():\n    x = {text}\n").body.statements[0].value


def ev(text, rank=0, nprocs=4, defs=None):
    return abstract_eval(expr(text), rank, nprocs, defs)


class TestConcreteEvaluation:
    def test_constants(self):
        assert ev("42") == 42
        assert ev("True") == 1

    def test_myrank_nprocs(self):
        assert ev("myrank", rank=3) == 3
        assert ev("nprocs", nprocs=8) == 8

    def test_arithmetic(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("-5 + 2") == -3
        assert ev("7 // 2") == 3
        assert ev("7 % 3") == 1

    def test_comparisons(self):
        assert ev("myrank % 2 == 0", rank=2) == 1
        assert ev("myrank % 2 == 0", rank=3) == 0
        assert ev("myrank < nprocs - 1", rank=3, nprocs=4) == 0

    def test_boolean_operators(self):
        assert ev("1 and 0") == 0
        assert ev("0 or 1") == 1
        assert ev("not 0") == 1

    def test_builtin_min_max_abs(self):
        assert ev("min(3, myrank)", rank=1) == 1
        assert ev("max(3, myrank)", rank=1) == 3
        assert ev("abs(0 - 4)") == 4


class TestUnknownPropagation:
    def test_input_is_unknown(self):
        assert ev("input(noise)") is None

    def test_unknown_propagates_through_arithmetic(self):
        assert ev("input(noise) + 1") is None
        assert ev("myrank * input(noise)") is None

    def test_unbound_name_unknown(self):
        assert ev("mystery") is None

    def test_short_circuit_and_with_known_false(self):
        assert ev("0 and input(noise)") == 0

    def test_short_circuit_or_with_known_true(self):
        assert ev("1 or input(noise)") == 1

    def test_unknown_boolean_stays_unknown(self):
        assert ev("1 and input(noise)") is None
        assert ev("0 or input(noise)") is None

    def test_division_by_zero_unknown(self):
        assert ev("5 // 0") is None
        assert ev("5 % 0") is None

    def test_opaque_builtin_unknown(self):
        assert ev("combine(1, 2)") is None


class TestDefinitionInlining:
    def test_inline_simple_definition(self):
        program = parse(
            "program t():\n    peer = myrank + 1\n    send(peer, 0)\n"
        )
        defs = {"peer": program.body.statements[0].value}
        dest = program.body.statements[1].dest
        assert abstract_eval(dest, 2, 4, defs) == 3

    def test_inline_chains(self):
        a = expr("myrank * 2")
        b = expr("a + 1")
        defs = {"a": a, "b": b}
        assert abstract_eval(expr("b"), 3, 8, defs) == 7

    def test_self_reference_bounded(self):
        looping = expr("a + 1")
        defs = {"a": looping}
        assert abstract_eval(expr("a"), 0, 4, defs) is None


class TestAgreementWithInterpreter:
    """abstract_eval on closed expressions must agree with the runtime
    interpreter's evaluator — two independent implementations."""

    @settings(max_examples=60, deadline=None)
    @given(
        rank=st.integers(min_value=0, max_value=7),
        a=st.integers(min_value=0, max_value=50),
        b=st.integers(min_value=1, max_value=50),
        op=st.sampled_from(["+", "-", "*", "//", "%", "==", "<", ">="]),
    )
    def test_binop_agreement(self, rank, a, b, op):
        from repro.runtime.interpreter import ProcessInterpreter

        text = f"(myrank + {a}) {op} {b}"
        static = ev(text, rank=rank, nprocs=8)
        interp = ProcessInterpreter(
            parse(f"program t():\n    x = {text}\n"), rank, 8
        )
        while interp.step() is not None:
            pass
        assert static == interp.env["x"]
