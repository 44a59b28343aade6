"""MiniMP: a small SPMD message-passing language.

MiniMP is the concrete "application level" this reproduction analyses.
It is deliberately small — the paper's offline analysis only consumes
control flow (``if``/``while``/``for``), message statements
(``send``/``recv``/``bcast``), ``checkpoint`` statements, and branch
conditions over process IDs — but it is a real language with a lexer, a
recursive-descent parser, an AST, and a pretty-printer, so the analysis
pipeline operates on source code exactly as the paper prescribes.

Typical use::

    from repro.lang import parse
    program = parse(source_text)

The :mod:`repro.lang.programs` module ships the canonical programs from
the paper (the Jacobi solver of Figure 1, the odd/even variant of
Figure 2) plus a library of realistic SPMD workloads.
"""

from repro.lang.ast_nodes import (
    Assign,
    BinOp,
    Block,
    Bcast,
    Call,
    Checkpoint,
    Compute,
    Const,
    Expr,
    For,
    If,
    InputData,
    MyRank,
    NProcs,
    Name,
    Pass,
    Program,
    Recv,
    Send,
    Stmt,
    UnaryOp,
    While,
    walk,
)
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.lang.tokens import Token, TokenKind, tokenize

__all__ = [
    "Assign",
    "BinOp",
    "Block",
    "Bcast",
    "Call",
    "Checkpoint",
    "Compute",
    "Const",
    "Expr",
    "For",
    "If",
    "InputData",
    "MyRank",
    "NProcs",
    "Name",
    "Pass",
    "Program",
    "Recv",
    "Send",
    "Stmt",
    "Token",
    "TokenKind",
    "UnaryOp",
    "While",
    "parse",
    "to_source",
    "tokenize",
    "walk",
]
