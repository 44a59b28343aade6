"""The character-by-character MiniMP front end, kept as a test oracle.

This is ``repro.lang`` as it stood before the lexer scanned each line
with one regular expression, the parser climbed precedence levels in one
loop and ``walk`` kept an explicit stack: a frozen-dataclass ``Token``
built per character run, one recursive-descent method per precedence
level that re-reads the cursor through ``current`` / ``_check`` /
``_match``, an ``elif`` parsed by rewriting its token to ``if``, and a
recursive-generator walk. It defines the tokens, trees, node-id order,
lines and error messages the production front end must reproduce
(``test_front_end_differential.py``), with one listed difference: a
character that passes ``str.isdigit`` but not ``int`` (``²``, ``①``) is
a ``NUMBER`` here and a ``LexerError`` in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import LexerError, ParseError
from repro.lang import ast_nodes as ast
from repro.lang.tokens import KEYWORDS, TokenKind

# Multi-character operators must be listed before their prefixes so the
# scanner prefers the longest match.
_OPERATORS = (
    "==", "!=", "<=", ">=", "//", "+", "-", "*", "/", "%", "<", ">", "=",
    "(", ")", ",", ":",
)


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    value: str
    line: int
    column: int


def _scan_line(text: str, line_no: int, start_col: int) -> list[Token]:
    """Scan the code portion of one physical line into tokens."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = start_col + i
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token(TokenKind.NUMBER, text[i:j], line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.NAME
            tokens.append(Token(kind, word, line_no, col))
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenKind.OP, op, line_no, col))
                i += len(op)
                break
        else:
            raise LexerError(f"unexpected character {ch!r}", line_no, col)
    return tokens


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniMP *source* into a token list ending with ``EOF``."""
    tokens: list[Token] = []
    indent_stack = [0]
    line_no = 0
    for raw_line in source.splitlines():
        line_no += 1
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(raw_line) - len(raw_line.lstrip(" \t"))
        if indent > indent_stack[-1]:
            indent_stack.append(indent)
            tokens.append(Token(TokenKind.INDENT, "", line_no, 0))
        else:
            while indent < indent_stack[-1]:
                indent_stack.pop()
                tokens.append(Token(TokenKind.DEDENT, "", line_no, 0))
            if indent != indent_stack[-1]:
                raise LexerError("inconsistent dedent", line_no, indent)
        line_tokens = _scan_line(raw_line.lstrip(" \t"), line_no, indent)
        if line_tokens:
            tokens.extend(line_tokens)
            tokens.append(Token(TokenKind.NEWLINE, "", line_no, len(raw_line)))
    while indent_stack[-1] > 0:
        indent_stack.pop()
        tokens.append(Token(TokenKind.DEDENT, "", line_no + 1, 0))
    tokens.append(Token(TokenKind.EOF, "", line_no + 1, 0))
    return tokens


_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ADD_OPS = ("+", "-")
_MUL_OPS = ("*", "/", "//", "%")


class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(message, token.line, token.column)

    def _check(self, kind: TokenKind, value: str | None = None) -> bool:
        token = self.current
        return token.kind is kind and (value is None or token.value == value)

    def _match(self, kind: TokenKind, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, value: str | None = None) -> Token:
        token = self._match(kind, value)
        if token is None:
            expected = value if value is not None else kind.name
            raise self._error(
                f"expected {expected!r}, found {self.current.value!r}"
            )
        return token

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        self._expect(TokenKind.KEYWORD, "program")
        name = self._expect(TokenKind.NAME).value
        self._expect(TokenKind.OP, "(")
        self._expect(TokenKind.OP, ")")
        self._expect(TokenKind.OP, ":")
        body = self._parse_suite()
        self._expect(TokenKind.EOF)
        return ast.Program(name=name, body=body, line=1)

    def _parse_suite(self) -> ast.Block:
        self._expect(TokenKind.NEWLINE)
        indent = self._expect(TokenKind.INDENT)
        statements: list[ast.Stmt] = []
        while not self._check(TokenKind.DEDENT):
            statements.append(self._parse_statement())
        self._expect(TokenKind.DEDENT)
        return ast.Block(statements=statements, line=indent.line)

    def _parse_statement(self) -> ast.Stmt:
        token = self.current
        if token.kind is TokenKind.KEYWORD:
            if token.value == "if":
                return self._parse_if()
            if token.value == "while":
                return self._parse_while()
            if token.value == "for":
                return self._parse_for()
            if token.value == "send":
                return self._finish_simple(self._parse_send())
            if token.value == "checkpoint":
                self._advance()
                return self._finish_simple(ast.Checkpoint(line=token.line))
            if token.value == "compute":
                return self._finish_simple(self._parse_compute())
            if token.value == "pass":
                self._advance()
                return self._finish_simple(ast.Pass(line=token.line))
            raise self._error(f"unexpected keyword {token.value!r}")
        if token.kind is TokenKind.NAME:
            return self._finish_simple(self._parse_assignment())
        raise self._error(f"unexpected token {token.value!r}")

    def _finish_simple(self, stmt: ast.Stmt) -> ast.Stmt:
        self._expect(TokenKind.NEWLINE)
        return stmt

    def _parse_send(self) -> ast.Send:
        token = self._expect(TokenKind.KEYWORD, "send")
        self._expect(TokenKind.OP, "(")
        dest = self._parse_expr()
        self._expect(TokenKind.OP, ",")
        value = self._parse_expr()
        self._expect(TokenKind.OP, ")")
        return ast.Send(dest=dest, value=value, line=token.line)

    def _parse_compute(self) -> ast.Compute:
        token = self._expect(TokenKind.KEYWORD, "compute")
        self._expect(TokenKind.OP, "(")
        cost = self._parse_expr()
        self._expect(TokenKind.OP, ")")
        return ast.Compute(cost=cost, line=token.line)

    def _parse_assignment(self) -> ast.Stmt:
        target = self._expect(TokenKind.NAME)
        self._expect(TokenKind.OP, "=")
        if self._check(TokenKind.KEYWORD, "recv"):
            self._advance()
            self._expect(TokenKind.OP, "(")
            source = self._parse_expr()
            self._expect(TokenKind.OP, ")")
            return ast.Recv(target=target.value, source=source, line=target.line)
        if self._check(TokenKind.KEYWORD, "bcast"):
            self._advance()
            self._expect(TokenKind.OP, "(")
            root = self._parse_expr()
            self._expect(TokenKind.OP, ",")
            value = self._parse_expr()
            self._expect(TokenKind.OP, ")")
            return ast.Bcast(
                target=target.value, root=root, value=value, line=target.line
            )
        value = self._parse_expr()
        return ast.Assign(target=target.value, value=value, line=target.line)

    def _parse_if(self) -> ast.If:
        token = self._expect(TokenKind.KEYWORD, "if")
        cond = self._parse_expr()
        self._expect(TokenKind.OP, ":")
        then_block = self._parse_suite()
        else_block = ast.Block(line=token.line)
        if self._check(TokenKind.KEYWORD, "elif"):
            # Desugar `elif` into a nested If inside the else block.
            elif_token = self.current
            # Rewrite the token in place so _parse_if sees a plain `if`.
            self._tokens[self._pos] = Token(
                TokenKind.KEYWORD, "if", elif_token.line, elif_token.column
            )
            nested = self._parse_if()
            else_block = ast.Block(statements=[nested], line=elif_token.line)
        elif self._match(TokenKind.KEYWORD, "else"):
            self._expect(TokenKind.OP, ":")
            else_block = self._parse_suite()
        return ast.If(
            cond=cond, then_block=then_block, else_block=else_block, line=token.line
        )

    def _parse_while(self) -> ast.While:
        token = self._expect(TokenKind.KEYWORD, "while")
        cond = self._parse_expr()
        self._expect(TokenKind.OP, ":")
        body = self._parse_suite()
        return ast.While(cond=cond, body=body, line=token.line)

    def _parse_for(self) -> ast.For:
        token = self._expect(TokenKind.KEYWORD, "for")
        var = self._expect(TokenKind.NAME).value
        self._expect(TokenKind.KEYWORD, "in")
        self._expect(TokenKind.KEYWORD, "range")
        self._expect(TokenKind.OP, "(")
        count = self._parse_expr()
        self._expect(TokenKind.OP, ")")
        self._expect(TokenKind.OP, ":")
        body = self._parse_suite()
        return ast.For(var=var, count=count, body=body, line=token.line)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._check(TokenKind.KEYWORD, "or"):
            token = self._advance()
            right = self._parse_and()
            left = ast.BinOp(op="or", left=left, right=right, line=token.line)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._check(TokenKind.KEYWORD, "and"):
            token = self._advance()
            right = self._parse_not()
            left = ast.BinOp(op="and", left=left, right=right, line=token.line)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._check(TokenKind.KEYWORD, "not"):
            token = self._advance()
            operand = self._parse_not()
            return ast.UnaryOp(op="not", operand=operand, line=token.line)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_arith()
        if self.current.kind is TokenKind.OP and self.current.value in _COMPARISON_OPS:
            token = self._advance()
            right = self._parse_arith()
            return ast.BinOp(op=token.value, left=left, right=right, line=token.line)
        return left

    def _parse_arith(self) -> ast.Expr:
        left = self._parse_term()
        while self.current.kind is TokenKind.OP and self.current.value in _ADD_OPS:
            token = self._advance()
            right = self._parse_term()
            left = ast.BinOp(op=token.value, left=left, right=right, line=token.line)
        return left

    def _parse_term(self) -> ast.Expr:
        left = self._parse_unary()
        while self.current.kind is TokenKind.OP and self.current.value in _MUL_OPS:
            token = self._advance()
            right = self._parse_unary()
            left = ast.BinOp(op=token.value, left=left, right=right, line=token.line)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._check(TokenKind.OP, "-"):
            token = self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(op="-", operand=operand, line=token.line)
        return self._parse_atom()

    def _parse_atom(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Const(value=int(token.value), line=token.line)
        if token.kind is TokenKind.KEYWORD:
            if token.value == "True":
                self._advance()
                return ast.Const(value=1, line=token.line)
            if token.value == "False":
                self._advance()
                return ast.Const(value=0, line=token.line)
            if token.value == "myrank":
                self._advance()
                return ast.MyRank(line=token.line)
            if token.value == "nprocs":
                self._advance()
                return ast.NProcs(line=token.line)
            if token.value == "input":
                self._advance()
                self._expect(TokenKind.OP, "(")
                label = self._expect(TokenKind.NAME).value
                self._expect(TokenKind.OP, ")")
                return ast.InputData(label=label, line=token.line)
            raise self._error(f"unexpected keyword {token.value!r} in expression")
        if token.kind is TokenKind.NAME:
            self._advance()
            if self._match(TokenKind.OP, "("):
                args: list[ast.Expr] = []
                if not self._check(TokenKind.OP, ")"):
                    args.append(self._parse_expr())
                    while self._match(TokenKind.OP, ","):
                        args.append(self._parse_expr())
                self._expect(TokenKind.OP, ")")
                return ast.Call(func=token.value, args=args, line=token.line)
            return ast.Name(ident=token.value, line=token.line)
        if self._match(TokenKind.OP, "("):
            expr = self._parse_expr()
            self._expect(TokenKind.OP, ")")
            return expr
        raise self._error(f"unexpected token {token.value!r} in expression")


def parse(source: str) -> ast.Program:
    """Parse MiniMP *source* text into a :class:`~repro.lang.Program`."""
    return _Parser(tokenize(source)).parse_program()


def children(node) -> Iterator:
    """Yield the direct AST children of *node* (expressions and blocks)."""
    if isinstance(node, ast.Program):
        yield node.body
    elif isinstance(node, ast.Block):
        yield from node.statements
    elif isinstance(node, ast.Assign):
        yield node.value
    elif isinstance(node, ast.Send):
        yield node.dest
        yield node.value
    elif isinstance(node, ast.Recv):
        yield node.source
    elif isinstance(node, ast.Bcast):
        yield node.root
        yield node.value
    elif isinstance(node, ast.Compute):
        yield node.cost
    elif isinstance(node, ast.If):
        yield node.cond
        yield node.then_block
        yield node.else_block
    elif isinstance(node, ast.While):
        yield node.cond
        yield node.body
    elif isinstance(node, ast.For):
        yield node.count
        yield node.body
    elif isinstance(node, ast.BinOp):
        yield node.left
        yield node.right
    elif isinstance(node, ast.UnaryOp):
        yield node.operand
    elif isinstance(node, ast.Call):
        yield from node.args
    # Const / Name / MyRank / NProcs / InputData / Checkpoint / Pass: leaves.


def walk(node) -> Iterator:
    """Yield *node* and all its descendants in pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)
