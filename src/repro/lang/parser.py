"""Parser for MiniMP: recursive descent for statements, precedence
climbing for expressions.

The grammar (statements end at NEWLINE; suites are INDENT ... DEDENT)::

    program    := "program" NAME "(" ")" ":" suite
    suite      := NEWLINE INDENT stmt+ DEDENT
    stmt       := simple NEWLINE | if | while | for
    simple     := assign | send | checkpoint | compute | "pass"
    assign     := NAME "=" (expr | recv_call | bcast_call)
    recv_call  := "recv" "(" expr ")"
    bcast_call := "bcast" "(" expr "," expr ")"
    send       := "send" "(" expr "," expr ")"
    compute    := "compute" "(" expr ")"
    if         := "if" expr ":" suite ("elif" expr ":" suite)*
                  ("else" ":" suite)?
    while      := "while" expr ":" suite
    for        := "for" NAME "in" "range" "(" expr ")" ":" suite

    expr       := or_expr
    or_expr    := and_expr ("or" and_expr)*
    and_expr   := not_expr ("and" not_expr)*
    not_expr   := "not" not_expr | comparison
    comparison := arith (("=="|"!="|"<"|"<="|">"|">=") arith)?
    arith      := term (("+"|"-") term)*
    term       := unary (("*"|"/"|"//"|"%") unary)*
    unary      := "-" unary | atom
    atom       := NUMBER | "True" | "False" | "myrank" | "nprocs"
                | "input" "(" NAME ")" | NAME ("(" args ")")?
                | "(" expr ")"

The parser reads the token list by index. An operator or keyword is
recognised by its spelling alone, which the lexer keeps unique to one
token kind.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast_nodes as ast
from repro.lang.tokens import Token, TokenKind, tokenize

#: Binding level of each binary operator, one per grammar rule above
#: (higher binds tighter). ``not`` takes level 3 and unary minus binds
#: tighter than every binary operator.
_BINARY = {
    "or": 1, "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "//": 6, "%": 6,
}
_NOT = 3
_COMPARISON = 4

_NAME, _NUMBER, _KEYWORD = TokenKind.NAME, TokenKind.NUMBER, TokenKind.KEYWORD


class _Parser:
    """Cursor over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _error(self, message: str) -> ParseError:
        token = self._tokens[self._pos]
        return ParseError(message, token.line, token.column)

    def _expect(self, spelling: str) -> Token:
        """Consume the operator or keyword *spelling*."""
        token = self._tokens[self._pos]
        if token.value != spelling:
            raise self._error(f"expected {spelling!r}, found {token.value!r}")
        self._pos += 1
        return token

    def _expect_kind(self, kind: TokenKind) -> Token:
        """Consume a token of *kind* (a name or a layout token)."""
        token = self._tokens[self._pos]
        if token.kind is not kind:
            raise self._error(f"expected {kind.name!r}, found {token.value!r}")
        self._pos += 1
        return token

    # -- statements ---------------------------------------------------------

    def parse_program(self) -> ast.Program:
        self._expect("program")
        name = self._expect_kind(_NAME).value
        self._expect("(")
        self._expect(")")
        self._expect(":")
        body = self._parse_suite()
        self._expect_kind(TokenKind.EOF)
        return ast.Program(name=name, body=body, line=1)

    def _parse_suite(self) -> ast.Block:
        self._expect_kind(TokenKind.NEWLINE)
        indent = self._expect_kind(TokenKind.INDENT)
        statements: list[ast.Stmt] = []
        tokens = self._tokens
        while tokens[self._pos].kind is not TokenKind.DEDENT:
            statements.append(self._parse_statement())
        self._pos += 1
        return ast.Block(statements=statements, line=indent.line)

    def _parse_statement(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        if token.kind is _NAME:
            stmt = self._parse_assignment(token)
        elif token.kind is not _KEYWORD:
            raise self._error(f"unexpected token {token.value!r}")
        elif token.value == "if":
            return self._parse_if()
        elif token.value == "while":
            self._pos += 1
            cond = self._expr()
            self._expect(":")
            return ast.While(cond=cond, body=self._parse_suite(), line=token.line)
        elif token.value == "for":
            return self._parse_for(token)
        elif token.value == "send":
            self._pos += 1
            dest, value = self._call_args(2)
            stmt = ast.Send(dest=dest, value=value, line=token.line)
        elif token.value == "checkpoint":
            self._pos += 1
            stmt = ast.Checkpoint(line=token.line)
        elif token.value == "compute":
            self._pos += 1
            (cost,) = self._call_args(1)
            stmt = ast.Compute(cost=cost, line=token.line)
        elif token.value == "pass":
            self._pos += 1
            stmt = ast.Pass(line=token.line)
        else:
            raise self._error(f"unexpected keyword {token.value!r}")
        self._expect_kind(TokenKind.NEWLINE)
        return stmt

    def _call_args(self, count: int) -> list[ast.Expr]:
        """``"(" expr ("," expr)* ")"`` with exactly *count* expressions."""
        self._expect("(")
        args = [self._expr()]
        while len(args) < count:
            self._expect(",")
            args.append(self._expr())
        self._expect(")")
        return args

    def _parse_assignment(self, target: Token) -> ast.Stmt:
        self._pos += 1
        self._expect("=")
        keyword = self._tokens[self._pos].value
        if keyword == "recv":
            self._pos += 1
            (source,) = self._call_args(1)
            return ast.Recv(target=target.value, source=source, line=target.line)
        if keyword == "bcast":
            self._pos += 1
            root, value = self._call_args(2)
            return ast.Bcast(
                target=target.value, root=root, value=value, line=target.line
            )
        value = self._expr()
        return ast.Assign(target=target.value, value=value, line=target.line)

    def _parse_if(self) -> ast.If:
        """An ``if`` or ``elif`` at the cursor; ``elif`` is a nested If."""
        token = self._tokens[self._pos]
        self._pos += 1
        cond = self._expr()
        self._expect(":")
        then_block = self._parse_suite()
        else_block = ast.Block(line=token.line)
        follow = self._tokens[self._pos]
        if follow.value == "elif":
            nested = self._parse_if()
            else_block = ast.Block(statements=[nested], line=follow.line)
        elif follow.value == "else":
            self._pos += 1
            self._expect(":")
            else_block = self._parse_suite()
        return ast.If(
            cond=cond, then_block=then_block, else_block=else_block, line=token.line
        )

    def _parse_for(self, token: Token) -> ast.For:
        self._pos += 1
        var = self._expect_kind(_NAME).value
        self._expect("in")
        self._expect("range")
        (count,) = self._call_args(1)
        self._expect(":")
        body = self._parse_suite()
        return ast.For(var=var, count=count, body=body, line=token.line)

    # -- expressions --------------------------------------------------------

    def _expr(self, min_level: int = 1) -> ast.Expr:
        """An expression whose binary operators bind at *min_level* or
        tighter; comparisons do not chain and never take a ``not``."""
        tokens = self._tokens
        token = tokens[self._pos]
        if token.value == "not" and min_level <= _NOT:
            self._pos += 1
            operand = self._expr(_NOT)
            left = ast.UnaryOp(op="not", operand=operand, line=token.line)
            comparable = False
        else:
            left = self._unary()
            comparable = True
        while True:
            token = tokens[self._pos]
            level = _BINARY.get(token.value)
            if level is None or level < min_level or (
                level == _COMPARISON and not comparable
            ):
                return left
            comparable = level > _COMPARISON
            self._pos += 1
            right = self._expr(level + 1)
            left = ast.BinOp(op=token.value, left=left, right=right, line=token.line)

    def _unary(self) -> ast.Expr:
        """``"-" unary | atom``."""
        tokens = self._tokens
        pos = self._pos
        token = tokens[pos]
        kind, value = token.kind, token.value
        if kind is _NAME:
            self._pos = pos + 1
            if tokens[pos + 1].value != "(":
                return ast.Name(ident=value, line=token.line)
            self._pos = pos + 2
            args: list[ast.Expr] = []
            if tokens[pos + 2].value != ")":
                args.append(self._expr())
                while tokens[self._pos].value == ",":
                    self._pos += 1
                    args.append(self._expr())
            self._expect(")")
            return ast.Call(func=value, args=args, line=token.line)
        if kind is _NUMBER:
            self._pos = pos + 1
            return ast.Const(value=int(value), line=token.line)
        if value == "-":
            self._pos = pos + 1
            return ast.UnaryOp(op="-", operand=self._unary(), line=token.line)
        if value == "(":
            self._pos = pos + 1
            expr = self._expr()
            self._expect(")")
            return expr
        if kind is not _KEYWORD:
            raise self._error(f"unexpected token {value!r} in expression")
        if value == "True" or value == "False":
            self._pos = pos + 1
            return ast.Const(value=int(value == "True"), line=token.line)
        if value == "myrank":
            self._pos = pos + 1
            return ast.MyRank(line=token.line)
        if value == "nprocs":
            self._pos = pos + 1
            return ast.NProcs(line=token.line)
        if value == "input":
            self._pos = pos + 1
            self._expect("(")
            label = self._expect_kind(_NAME).value
            self._expect(")")
            return ast.InputData(label=label, line=token.line)
        raise self._error(f"unexpected keyword {value!r} in expression")


def parse(source: str) -> ast.Program:
    """Parse MiniMP *source* text into a :class:`~repro.lang.Program`
    whose node ids are pre-order positions
    (:func:`~repro.lang.ast_nodes.number_nodes`)."""
    return ast.number_nodes(_Parser(tokenize(source)).parse_program())
