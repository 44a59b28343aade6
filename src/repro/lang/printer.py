"""Pretty-printer: MiniMP AST back to source text.

Phase III rewrites the AST (moving ``checkpoint`` statements); the
printer makes the transformed program inspectable and round-trippable —
``parse(to_source(parse(src)))`` yields a structurally equal AST, which
the test suite checks property-style.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast

_INDENT = "    "

# Binding strength for parenthesisation; higher binds tighter.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 4,
    "!=": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "//": 6,
    "%": 6,
}


def expr_to_source(expr: ast.Expr) -> str:
    """Render a single expression."""
    return _render_expr(expr, parent_prec=0)


def _render_expr(expr: ast.Expr, parent_prec: int) -> str:
    if isinstance(expr, ast.Const):
        return str(expr.value)
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.MyRank):
        return "myrank"
    if isinstance(expr, ast.NProcs):
        return "nprocs"
    if isinstance(expr, ast.InputData):
        return f"input({expr.label})"
    if isinstance(expr, ast.Call):
        args = ", ".join(_render_expr(a, 0) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, ast.UnaryOp):
        operand = _render_expr(expr.operand, 7)
        if expr.op == "not":
            # ``not`` binds looser than every operator but ``and``/``or``.
            text = f"not {operand}"
            return f"({text})" if parent_prec > _PRECEDENCE["and"] else text
        return f"(-{operand})" if parent_prec >= 7 else f"-{operand}"
    if isinstance(expr, ast.BinOp):
        prec = _PRECEDENCE[expr.op]
        # Comparisons do not chain: a comparison on the left is wrapped too.
        comparison = prec == _PRECEDENCE["=="]
        left = _render_expr(expr.left, prec if comparison else prec - 1)
        right = _render_expr(expr.right, prec)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec <= parent_prec else text
    raise TypeError(f"unknown expression node: {expr!r}")


def _render_block(block: ast.Block, depth: int, lines: list[str]) -> None:
    prefix = _INDENT * depth
    if not block.statements:
        lines.append(f"{prefix}pass")
        return
    for stmt in block.statements:
        _render_stmt(stmt, depth, lines)


def _render_stmt(stmt: ast.Stmt, depth: int, lines: list[str]) -> None:
    prefix = _INDENT * depth
    if isinstance(stmt, ast.Assign):
        lines.append(f"{prefix}{stmt.target} = {expr_to_source(stmt.value)}")
    elif isinstance(stmt, ast.Send):
        lines.append(
            f"{prefix}send({expr_to_source(stmt.dest)}, {expr_to_source(stmt.value)})"
        )
    elif isinstance(stmt, ast.Recv):
        lines.append(f"{prefix}{stmt.target} = recv({expr_to_source(stmt.source)})")
    elif isinstance(stmt, ast.Bcast):
        lines.append(
            f"{prefix}{stmt.target} = "
            f"bcast({expr_to_source(stmt.root)}, {expr_to_source(stmt.value)})"
        )
    elif isinstance(stmt, ast.Checkpoint):
        lines.append(f"{prefix}checkpoint")
    elif isinstance(stmt, ast.Compute):
        lines.append(f"{prefix}compute({expr_to_source(stmt.cost)})")
    elif isinstance(stmt, ast.Pass):
        lines.append(f"{prefix}pass")
    elif isinstance(stmt, ast.If):
        lines.append(f"{prefix}if {expr_to_source(stmt.cond)}:")
        _render_block(stmt.then_block, depth + 1, lines)
        if stmt.else_block.statements:
            lines.append(f"{prefix}else:")
            _render_block(stmt.else_block, depth + 1, lines)
    elif isinstance(stmt, ast.While):
        lines.append(f"{prefix}while {expr_to_source(stmt.cond)}:")
        _render_block(stmt.body, depth + 1, lines)
    elif isinstance(stmt, ast.For):
        lines.append(
            f"{prefix}for {stmt.var} in range({expr_to_source(stmt.count)}):"
        )
        _render_block(stmt.body, depth + 1, lines)
    else:
        raise TypeError(f"unknown statement node: {stmt!r}")


def to_source(program: ast.Program) -> str:
    """Render *program* as MiniMP source text (ending with a newline)."""
    lines = [f"program {program.name}():"]
    _render_block(program.body, 1, lines)
    return "\n".join(lines) + "\n"


def ast_equal(a: ast._Node, b: ast._Node) -> bool:
    """Structural AST equality ignoring node ids and source lines."""
    if type(a) is not type(b):
        return False
    fields_a = {
        k: v for k, v in vars(a).items() if k not in ("node_id", "line")
    }
    fields_b = {
        k: v for k, v in vars(b).items() if k not in ("node_id", "line")
    }
    if fields_a.keys() != fields_b.keys():
        return False
    for key, value_a in fields_a.items():
        value_b = fields_b[key]
        if isinstance(value_a, ast._Node):
            if not ast_equal(value_a, value_b):
                return False
        elif isinstance(value_a, list):
            if len(value_a) != len(value_b):
                return False
            for item_a, item_b in zip(value_a, value_b):
                if isinstance(item_a, ast._Node):
                    if not ast_equal(item_a, item_b):
                        return False
                elif item_a != item_b:
                    return False
        elif value_a != value_b:
            return False
    return True
