"""The recursive one-point evaluator, as a test oracle.

:mod:`repro.attributes.expressions` evaluates an expression over a
whole vector of ``(rank, nprocs)`` points in one walk of the tree; this
is the per-point recursion it replaced, kept verbatim so the
differential tests can check the vector evaluator point by point.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast

_MAX_INLINE_DEPTH = 16


def scalar_eval(
    expr: ast.Expr,
    rank: int,
    nprocs: int,
    defs: dict[str, ast.Expr] | None = None,
    _depth: int = 0,
) -> int | None:
    """Evaluate *expr* for a process with the given *rank*.

    Returns the concrete integer value, or ``None`` if the value cannot
    be determined statically. Division or modulo by zero also yields
    ``None`` (the execution would fault; for matching purposes the
    value is unconstrained).
    """
    if _depth > _MAX_INLINE_DEPTH:
        return None
    if isinstance(expr, ast.Const):
        return expr.value
    if isinstance(expr, ast.MyRank):
        return rank
    if isinstance(expr, ast.NProcs):
        return nprocs
    if isinstance(expr, ast.InputData):
        return None
    if isinstance(expr, ast.Name):
        if defs and expr.ident in defs:
            return scalar_eval(
                defs[expr.ident], rank, nprocs, defs, _depth + 1
            )
        return None
    if isinstance(expr, ast.Call):
        args = [scalar_eval(a, rank, nprocs, defs, _depth + 1) for a in expr.args]
        if any(a is None for a in args):
            return None
        if expr.func == "min":
            return min(args)
        if expr.func == "max":
            return max(args)
        if expr.func == "abs" and len(args) == 1:
            return abs(args[0])
        return None
    if isinstance(expr, ast.UnaryOp):
        operand = scalar_eval(expr.operand, rank, nprocs, defs, _depth + 1)
        if operand is None:
            return None
        if expr.op == "-":
            return -operand
        if expr.op == "not":
            return int(not operand)
        return None
    if isinstance(expr, ast.BinOp):
        return _eval_binop(expr, rank, nprocs, defs, _depth)
    return None


def _eval_binop(
    expr: ast.BinOp,
    rank: int,
    nprocs: int,
    defs: dict[str, ast.Expr] | None,
    depth: int,
) -> int | None:
    left = scalar_eval(expr.left, rank, nprocs, defs, depth + 1)
    # Short-circuit forms first: one known side can decide the result.
    if expr.op == "and":
        if left == 0:
            return 0
        right = scalar_eval(expr.right, rank, nprocs, defs, depth + 1)
        if right == 0:
            return 0
        if left is None or right is None:
            return None
        return int(bool(left) and bool(right))
    if expr.op == "or":
        if left is not None and left != 0:
            return 1
        right = scalar_eval(expr.right, rank, nprocs, defs, depth + 1)
        if right is not None and right != 0:
            return 1
        if left is None or right is None:
            return None
        return 0
    right = scalar_eval(expr.right, rank, nprocs, defs, depth + 1)
    if left is None or right is None:
        return None
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op in ("/", "//"):
        return left // right if right != 0 else None
    if expr.op == "%":
        return left % right if right != 0 else None
    if expr.op == "==":
        return int(left == right)
    if expr.op == "!=":
        return int(left != right)
    if expr.op == "<":
        return int(left < right)
    if expr.op == "<=":
        return int(left <= right)
    if expr.op == ">":
        return int(left > right)
    if expr.op == ">=":
        return int(left >= right)
    return None
