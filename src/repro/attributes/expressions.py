"""Abstract evaluation of MiniMP expressions as functions of rank.

:func:`evaluate` partially evaluates an expression at many
``(rank, nprocs)`` points at once — one walk of the tree, each node
computed as a vector over the points — inlining single-assignment
variable definitions. Each value is either a concrete integer or
``None``, meaning *unknown*: the expression depends on input data,
received values, loop counters, or multiply-assigned variables.
Unknown values act as wildcards in contradiction checking (paper:
irregular patterns "match if they do not contradict").
:func:`abstract_eval` is the one-point case.

The semantics are pointwise: ``and``/``or`` evaluate their right side
only at the points the left side leaves open, ``//`` and ``%`` by zero
are unknown, and inlining stops 16 levels deep.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.lang import ast_nodes as ast

_MAX_INLINE_DEPTH = 16

Values = list[int | None]

_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b != 0 else None,
    "//": lambda a, b: a // b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


def universe_points(sizes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The parallel ``(ranks, nprocs)`` vectors of every ``(size, rank)``
    point of *sizes*, size-major: point ``k`` is bit ``k`` of a mask."""
    ranks = [rank for nprocs in sizes for rank in range(nprocs)]
    sizes_of = [nprocs for nprocs in sizes for _ in range(nprocs)]
    return ranks, sizes_of


def evaluate(
    expr: ast.Expr,
    ranks: Sequence[int],
    nprocs: Sequence[int],
    defs: dict[str, ast.Expr] | None = None,
) -> Values:
    """Evaluate *expr* at every point ``(ranks[k], nprocs[k])``.

    Returns one value per point: the concrete integer, or ``None`` if
    it cannot be determined statically. Division or modulo by zero also
    yields ``None`` (the execution would fault; for matching purposes
    the value is unconstrained).
    """
    return _eval(expr, ranks, nprocs, defs, 0)


def abstract_eval(
    expr: ast.Expr,
    rank: int,
    nprocs: int,
    defs: dict[str, ast.Expr] | None = None,
) -> int | None:
    """Evaluate *expr* for a process with the given *rank*: the
    one-point case of :func:`evaluate`."""
    return _eval(expr, (rank,), (nprocs,), defs, 0)[0]


def _eval(expr, ranks, nprocs, defs, depth) -> Values:
    if depth > _MAX_INLINE_DEPTH:
        return [None] * len(ranks)
    if isinstance(expr, ast.Const):
        return [expr.value] * len(ranks)
    if isinstance(expr, ast.MyRank):
        return list(ranks)
    if isinstance(expr, ast.NProcs):
        return list(nprocs)
    if isinstance(expr, ast.Name):
        if defs and expr.ident in defs:
            return _eval(defs[expr.ident], ranks, nprocs, defs, depth + 1)
        return [None] * len(ranks)
    if isinstance(expr, ast.Call):
        args = [_eval(a, ranks, nprocs, defs, depth + 1) for a in expr.args]
        if expr.func in ("min", "max"):
            pick = min if expr.func == "min" else max
            columns = zip(*args) if args else [()] * len(ranks)
            return [None if None in col else pick(col) for col in columns]
        if expr.func == "abs" and len(args) == 1:
            return [None if v is None else abs(v) for v in args[0]]
        return [None] * len(ranks)
    if isinstance(expr, ast.UnaryOp):
        operand = _eval(expr.operand, ranks, nprocs, defs, depth + 1)
        if expr.op == "-":
            return [None if v is None else -v for v in operand]
        if expr.op == "not":
            return [None if v is None else int(not v) for v in operand]
        return [None] * len(ranks)
    if isinstance(expr, ast.BinOp):
        if expr.op in ("and", "or"):
            return _eval_logical(expr, ranks, nprocs, defs, depth)
        left = _eval(expr.left, ranks, nprocs, defs, depth + 1)
        right = _eval(expr.right, ranks, nprocs, defs, depth + 1)
        fn = _BINARY.get(expr.op)
        if fn is None:
            return [None] * len(ranks)
        return [
            None if a is None or b is None else fn(a, b)
            for a, b in zip(left, right)
        ]
    # InputData and anything unrecognised.
    return [None] * len(ranks)


def _eval_logical(expr, ranks, nprocs, defs, depth) -> Values:
    """Short-circuit ``and``/``or``: one known side can decide a point,
    and the right side is evaluated only where the left leaves it open."""
    left = _eval(expr.left, ranks, nprocs, defs, depth + 1)
    conjunction = expr.op == "and"
    if conjunction:
        result = [0 if v == 0 else None for v in left]
        open_points = [k for k, v in enumerate(left) if v != 0]
    else:
        result = [None if v is None or v == 0 else 1 for v in left]
        open_points = [k for k, v in enumerate(left) if v is None or v == 0]
    if not open_points:
        return result
    if len(open_points) == len(ranks):
        right = _eval(expr.right, ranks, nprocs, defs, depth + 1)
    else:
        right = _eval(
            expr.right,
            [ranks[k] for k in open_points],
            [nprocs[k] for k in open_points],
            defs,
            depth + 1,
        )
    for k, b in zip(open_points, right):
        a = left[k]
        if conjunction:
            if b == 0:
                result[k] = 0
            elif a is not None and b is not None:
                result[k] = int(bool(a) and bool(b))
        elif b is not None and b != 0:
            result[k] = 1
        elif a is not None and b is not None:
            result[k] = 0
    return result
