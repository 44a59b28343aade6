"""Lexer tests."""

import pytest

from repro.errors import LexerError
from repro.lang.parser import parse
from repro.lang.tokens import Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.value]


class TestBasicTokens:
    def test_number(self):
        tokens = tokenize("x = 42\n")
        number = [t for t in tokens if t.kind is TokenKind.NUMBER]
        assert [t.value for t in number] == ["42"]

    def test_name_vs_keyword(self):
        tokens = tokenize("while foo\n")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.NAME

    def test_all_keywords_recognised(self):
        for word in ("program", "if", "else", "while", "send", "recv",
                     "checkpoint", "myrank", "nprocs", "input"):
            token = tokenize(word)[0]
            assert token.kind is TokenKind.KEYWORD, word

    def test_multi_char_operators_prefer_longest(self):
        assert values("a == b") == ["a", "==", "b"]
        assert values("a <= b") == ["a", "<=", "b"]
        assert values("a // b") == ["a", "//", "b"]

    def test_single_char_operators(self):
        assert values("(a + b) * c") == ["(", "a", "+", "b", ")", "*", "c"]

    def test_underscore_names(self):
        token = tokenize("my_var_1")[0]
        assert token.kind is TokenKind.NAME
        assert token.value == "my_var_1"

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("x = 1\n")[-1].kind is TokenKind.EOF


class TestIndentation:
    def test_indent_dedent_pairing(self):
        source = "if a:\n    b = 1\nc = 2\n"
        ks = kinds(source)
        assert ks.count(TokenKind.INDENT) == 1
        assert ks.count(TokenKind.DEDENT) == 1

    def test_nested_indentation(self):
        source = "if a:\n    if b:\n        c = 1\n"
        ks = kinds(source)
        assert ks.count(TokenKind.INDENT) == 2
        assert ks.count(TokenKind.DEDENT) == 2

    def test_dedent_to_outer_level(self):
        source = "if a:\n    if b:\n        c = 1\nd = 2\n"
        ks = kinds(source)
        assert ks.count(TokenKind.DEDENT) == 2

    def test_trailing_dedents_emitted_at_eof(self):
        source = "if a:\n    b = 1"
        ks = kinds(source)
        assert ks.count(TokenKind.DEDENT) == 1

    def test_inconsistent_dedent_raises(self):
        source = "if a:\n        b = 1\n    c = 2\n"
        with pytest.raises(LexerError, match="inconsistent dedent"):
            tokenize(source)

    def test_blank_lines_ignored(self):
        assert kinds("a = 1\n\n\nb = 2\n") == kinds("a = 1\nb = 2\n")

    def test_comment_lines_ignored(self):
        assert kinds("a = 1\n# comment\nb = 2\n") == kinds("a = 1\nb = 2\n")

    def test_trailing_comment_stripped(self):
        assert values("a = 1  # trailing\n") == ["a", "=", "1"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("a = @b\n")
        assert excinfo.value.line == 1

    def test_error_reports_position(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("ok = 1\nbad = $\n")
        assert excinfo.value.line == 2


    @pytest.mark.parametrize(
        "text, column",
        [("x = ²\n", 4), ("x = 1²\n", 5), ("x = ①2\n", 4), ("x = 3 + ²y\n", 8)],
    )
    def test_digit_that_is_not_decimal_is_an_error_at_its_column(
        self, text, column
    ):
        with pytest.raises(LexerError, match="unexpected character") as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert values("x = ٣\n") == ["x", "=", "٣"]
        program = parse("program t():\n    x = ٣7\n")
        assert program.body.statements[0].value.value == 37

    def test_letters_and_digits_of_any_script_continue_a_name(self):
        assert values("é = x² + λ①\n") == ["é", "=", "x²", "+", "λ①"]


class TestPositions:
    def test_line_numbers(self):
        tokens = tokenize("a = 1\nb = 2\n")
        a = next(t for t in tokens if t.value == "a")
        b = next(t for t in tokens if t.value == "b")
        assert a.line == 1 and b.line == 2

    def test_column_accounts_for_indent(self):
        tokens = tokenize("if x:\n    y = 1\n")
        y = next(t for t in tokens if t.value == "y")
        assert y.column == 4

    def test_token_repr_is_informative(self):
        token = Token(TokenKind.NAME, "foo", 3, 7)
        assert "foo" in repr(token)
