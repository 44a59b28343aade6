"""Lexer for MiniMP.

MiniMP uses Python-style significant indentation. The lexer converts
source text into a flat token stream including synthetic ``INDENT`` and
``DEDENT`` tokens, which keeps the parser a plain recursive-descent
parser with no layout logic. Each line is scanned by one compiled
regular expression, one match per token.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexerError


class TokenKind(enum.Enum):
    """Lexical categories of MiniMP tokens."""

    NUMBER = "number"
    NAME = "name"
    KEYWORD = "keyword"
    OP = "op"
    NEWLINE = "newline"
    INDENT = "indent"
    DEDENT = "dedent"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "program",
        "if",
        "else",
        "elif",
        "while",
        "for",
        "in",
        "range",
        "send",
        "recv",
        "bcast",
        "checkpoint",
        "compute",
        "pass",
        "and",
        "or",
        "not",
        "myrank",
        "nprocs",
        "input",
        "True",
        "False",
    }
)

# Multi-character operators are listed before their prefixes so the
# scanner prefers the longest match.
_OPERATORS = ("==", "!=", "<=", ">=", "//", *"+-*/%<>=(),:")

#: One token after optional blanks. Group 1 is a decimal number; group 2
#: an ASCII-initial word or an operator; group 3 a word that starts with
#: any other letter or digit; group 4 any other character.
_TOKEN = re.compile(
    r"[ \t]*(?:(\d+)|([A-Za-z_]\w*|%s)|(\w+)|([^ \t]))"
    % "|".join(map(re.escape, _OPERATORS))
)

#: The kind of every fixed spelling; any other group-2 word is a name.
_FIXED_KIND = {word: TokenKind.KEYWORD for word in KEYWORDS} | {
    op: TokenKind.OP for op in _OPERATORS
}


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: TokenKind
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniMP *source* into a token list ending with ``EOF``.

    Blank lines and comment-only lines are skipped; indentation changes
    produce ``INDENT``/``DEDENT`` tokens. Tabs count as a single space of
    indentation, so sources should indent with spaces (as all shipped
    programs do). A word may hold any Unicode letter or digit but must
    start with a letter or ``_``; a number is a run of decimal digits.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    fixed_kind = _FIXED_KIND.get
    name, number = TokenKind.NAME, TokenKind.NUMBER
    indent_stack = [0]
    line_no = 0
    for line_no, raw_line in enumerate(source.splitlines(), 1):
        stripped = raw_line.strip()
        if not stripped or stripped[0] == "#":
            continue
        indent = len(raw_line) - len(raw_line.lstrip(" \t"))
        if indent > indent_stack[-1]:
            indent_stack.append(indent)
            append(new(Token, (TokenKind.INDENT, "", line_no, 0)))
        else:
            while indent < indent_stack[-1]:
                indent_stack.pop()
                append(new(Token, (TokenKind.DEDENT, "", line_no, 0)))
            if indent != indent_stack[-1]:
                raise LexerError("inconsistent dedent", line_no, indent)
        first = len(tokens)
        for match in _TOKEN.finditer(raw_line, indent):
            group = match.lastindex
            value = match[group]
            if group == 2:
                kind = fixed_kind(value, name)
            elif group == 1:
                kind = number
            elif group == 3 and value[0].isalpha():
                kind = name
            elif value == "#":
                break
            else:
                raise LexerError(
                    f"unexpected character {value[0]!r}", line_no, match.start(group)
                )
            append(new(Token, (kind, value, line_no, match.start(group))))
        if len(tokens) > first:
            append(new(Token, (TokenKind.NEWLINE, "", line_no, len(raw_line))))
    while indent_stack[-1] > 0:
        indent_stack.pop()
        append(new(Token, (TokenKind.DEDENT, "", line_no + 1, 0)))
    append(new(Token, (TokenKind.EOF, "", line_no + 1, 0)))
    return tokens
