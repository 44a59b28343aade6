"""The front end agrees with its character-by-character predecessor.

``reference_front_end`` is the lexer, parser and walk that the regex
lexer, the precedence-climbing parser and the explicit-stack walk
replaced. Over generated text — MiniMP tokens and keywords, ASCII and
non-ASCII letters and digits, blanks, tabs, indentation changes,
comments and stray characters — both must give the same tokens, the
same trees (lines and node-id order included) and the same errors. The
one listed difference: a character that passes ``str.isdigit`` but is
not a decimal digit (``²``, ``①``) lexed as a ``NUMBER`` the parser
could not convert, and is now a ``LexerError`` at its column.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LanguageError, LexerError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import ast_equal, to_source
from repro.lang.programs import program_names, program_source
from repro.lang.tokens import KEYWORDS, TokenKind, tokenize

from . import reference_front_end as reference
from ..phases.generator import generate_exchange_program

OPERATORS = ["==", "!=", "<=", ">=", "//", *"+-*/%<>=(),:"]
BINARY = ["or", "and", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/",
          "//", "%"]
WORDS = ["x", "_a1", "foo", "é", "ßx", "λ2", "名", "x²", "x①"]
NUMBERS = ["0", "42", "٣", "৭7", "²", "1²", "①", "½", "Ⅷ"]
STRAY = ["@", "$", "!", "?", ".", ";", "[", "'", "\xa0", "\u0301", "#", "# c"]
BLANKS = [" ", " ", " ", "\t"]
INDENTS = ["", "", "    ", "    ", "        ", " ", "  ", "\t", " \t"]

fragments = st.sampled_from(
    OPERATORS + sorted(KEYWORDS) + WORDS + NUMBERS + STRAY + BLANKS
)
soup_lines = st.tuples(
    st.sampled_from(INDENTS), st.lists(fragments, max_size=8)
).map(lambda pair: pair[0] + "".join(pair[1]))


def _join_lines(lines, newline="\n"):
    return newline.join(lines) + newline


soup_texts = st.builds(
    _join_lines,
    st.lists(soup_lines | st.sampled_from(["", "# only a comment"]),
             max_size=8),
    st.sampled_from(["\n", "\r\n"]),
)

CLEAN_ATOMS = ["a", "b", "7", "0", "True", "False", "myrank", "nprocs",
               "input(w)", "f()"]


def expressions(atoms):
    """Expression text over *atoms*; not always well formed (``a < b <
    c``, ``a * not b``)."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(BINARY), inner).map(" ".join),
            st.tuples(st.sampled_from(["not ", "-", "- "]), inner).map("".join),
            inner.map("({})".format),
            st.lists(inner, max_size=3).map(
                lambda args: f"f({', '.join(args)})"
            ),
        ),
        max_leaves=6,
    )


clean_expressions = expressions(CLEAN_ATOMS)
noisy_expressions = expressions(CLEAN_ATOMS + ["not", ")", "", "٣", "²"])
CLEAN_STATEMENTS = [
    "x = {}", "send({}, {})", "y = recv({})", "z = bcast({}, {})",
    "compute({})", "checkpoint", "pass", "while {}:", "for i in range({}):",
    *["if {}:"] * 4,
]
STATEMENTS = CLEAN_STATEMENTS + [
    "elif {}:", "else:", "x = {} {}", "checkpoint {}",
]


@st.composite
def program_texts(draw):
    """Statement lines under a header, indented one level deeper after a
    line ending in ``:``, with ``elif`` / ``else`` after an ``if`` suite.
    Half the programs are noisy: any header, statement or atom, a line
    of token soup now and then, and now and then an odd indentation."""
    noisy = draw(st.booleans())
    exprs = noisy_expressions if noisy else clean_expressions
    lines = [draw(st.sampled_from(
        ["program t():", "program t()", "program ():", "t():"]
    )) if noisy else "program t():"]
    depth, opener = 1, {}
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if noisy and draw(st.integers(min_value=0, max_value=9)) == 0:
            lines.append(draw(soup_lines))
            continue
        template = draw(st.sampled_from(STATEMENTS if noisy else CLEAN_STATEMENTS))
        indent = "    " * depth
        if noisy:
            indent = draw(st.sampled_from([indent] * 8 + ["  ", "\t"]))
        lines.append(indent + template.format(
            *(draw(exprs) for _ in range(template.count("{}")))
        ))
        opener[depth] = template.split()[0]
        if template.endswith(":"):
            depth += 1
            continue
        depth = draw(st.integers(min_value=1, max_value=depth))
        if opener[depth] in ("if", "elif") and draw(st.booleans()):
            follow = draw(st.sampled_from(["elif {}:", "else:"]))
            lines.append("    " * depth + follow.format(draw(exprs)))
            opener[depth] = follow.split()[0]
            depth += 1
    if lines[-1].endswith(":"):
        lines.append("    " * depth + "pass")
    return _join_lines(lines)


def reference_tokens(text):
    """The reference lexer's tokens, or the error the production lexer
    must raise: its own, unless a ``NUMBER`` in front of it holds a
    non-decimal digit, which is now the error."""
    try:
        tokens, error = reference.tokenize(text), None
    except LexerError as exc:
        # Everything in front of the error lexed; look there for digits.
        lines = text.splitlines()
        head = lines[:exc.line - 1] + [lines[exc.line - 1][:exc.column]]
        tokens, error = reference.tokenize("\n".join(head)), exc
    for token in tokens:
        if token.kind is TokenKind.NUMBER and not token.value.isdecimal():
            offset = next(
                i for i, ch in enumerate(token.value) if not ch.isdecimal()
            )
            raise LexerError(
                f"unexpected character {token.value[offset]!r}",
                token.line, token.column + offset,
            )
    if error is not None:
        raise error
    return [(t.kind, t.value, t.line, t.column) for t in tokens]


def reference_parse(text):
    reference_tokens(text)
    return reference.parse(text)


def outcome(function, text):
    """``(True, result)`` or ``(False, (type, message, line, column))``."""
    try:
        result = function(text)
    except LanguageError as error:
        return False, (type(error), str(error), error.line, error.column)
    if isinstance(result, ast.Program):
        return True, result
    return True, [tuple(token) for token in result]


def shape(program):
    return [
        (type(node).__name__, node.line, node.node_id)
        for node in reference.walk(program)
    ]


def assert_same_parse(text):
    ok, got = outcome(parse, text)
    ref_ok, want = outcome(reference_parse, text)
    assert ok == ref_ok, (got, want)
    if not ok:
        assert got == want
        return None
    program, ref_program = got, want
    assert ast_equal(program, ref_program)
    # The oracle's ids: positions in the recursive pre-order walk.
    for position, node in enumerate(reference.walk(ref_program), 1):
        node.node_id = position
    assert shape(program) == shape(ref_program)
    assert [id(n) for n in ast.walk(program)] == [
        id(n) for n in reference.walk(program)
    ]
    return program


def assert_same_text(text):
    assert outcome(tokenize, text) == outcome(reference_tokens, text)
    return assert_same_parse(text)


@settings(max_examples=300, deadline=None)
@given(text=soup_texts)
def test_token_soup_lexes_alike(text):
    assert outcome(tokenize, text) == outcome(reference_tokens, text)


@settings(max_examples=300, deadline=None)
@given(text=program_texts())
def test_generated_programs_parse_alike(text):
    assert_same_text(text)


@settings(max_examples=300, deadline=None)
@given(expr=noisy_expressions)
def test_generated_expressions_parse_alike(expr):
    assert_same_parse(f"program t():\n    x = {expr}\n")


@pytest.mark.parametrize("name", program_names())
def test_shipped_programs_agree(name):
    assert assert_same_text(program_source(name)) is not None


@pytest.mark.parametrize("seed", range(0, 400, 20))
def test_exchange_programs_agree(seed):
    program = generate_exchange_program(seed)
    assert [id(n) for n in ast.walk(program)] == [
        id(n) for n in reference.walk(program)
    ]
    assert assert_same_text(to_source(program)) is not None


def test_elif_chain_keeps_node_order_and_lines():
    text = (
        "program t():\n    if a:\n        x = 1\n    elif b:\n        x = 2\n"
        "    elif c:\n        pass\n    else:\n        x = 3\n"
    )
    program = assert_same_text(text)
    nested = program.body.statements[0].else_block
    assert nested.line == 4 and nested.statements[0].else_block.line == 6


def test_non_decimal_digit_is_the_one_listed_difference():
    text = "program t():\n    x = 1²\n"
    assert reference.tokenize(text)[-4].value == "1²"
    with pytest.raises(ValueError):
        reference.parse(text)
    for function in (tokenize, parse):
        with pytest.raises(LexerError) as excinfo:
            function(text)
        assert (excinfo.value.line, excinfo.value.column) == (2, 9)


REWRITES = {
    "reverse": lambda stmts: stmts[::-1],
    "drop first": lambda stmts: stmts[1:],
    "clear": lambda stmts: [],
    "drop checkpoints": lambda stmts: [
        s for s in stmts if not isinstance(s, ast.Checkpoint)
    ],
}


def rewriting_walk(walk, program, rewrite):
    """Walk *program*, rewriting each block's statements as it is seen."""
    seen = []
    for node in walk(program):
        seen.append((type(node).__name__, node.node_id))
        if isinstance(node, ast.Block):
            node.statements[:] = rewrite(node.statements)
    return seen


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(program_names()),
    rewrite=st.sampled_from(sorted(REWRITES)),
)
def test_walk_reads_children_after_the_consumer_rewrites_them(name, rewrite):
    program = parse(program_source(name))
    ours, theirs = ast.clone(program), ast.clone(program)
    assert rewriting_walk(ast.walk, ours, REWRITES[rewrite]) == (
        rewriting_walk(reference.walk, theirs, REWRITES[rewrite])
    )
    assert to_source(ours) == to_source(theirs)
