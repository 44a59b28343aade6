"""The universe evaluator against the recursive one-point oracle.

:func:`repro.attributes.expressions.evaluate` walks an expression once
over a vector of ``(rank, nprocs)`` points; ``scalar_eval`` is the
per-point recursion it replaced. At every point the two must give the
same value (``None`` included) or both raise — over every binary
operator, ``and``/``or`` with unknown sides, unary ``-``/``not``,
``min``/``max``/``abs`` of every arity, ``input()``, boolean constants,
zero divisors and ``defs`` chains deeper than the inlining cap, on the
whole default universe and on scattered subsets of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes.contradiction import Universe
from repro.attributes.expressions import (
    abstract_eval,
    evaluate,
    universe_points,
)
from repro.lang import ast_nodes as ast

from .scalar_eval import scalar_eval

#: Every operator the evaluator knows, the short-circuit pair thrice
#: (their open-point bookkeeping is the subtle part), and one it does
#: not (``**``: unknown at every point).
BINARY = (
    "+", "-", "*", "/", "//", "%", "==", "!=", "<", "<=", ">", ">=",
    "and", "or", "and", "or", "and", "or", "**",
)
#: ``d0 = d1``, …, ``d15 = d16``, ``d16 = myrank``: 17 definitions
#: deep, one past the inlining cap from ``d0`` and just inside it from
#: ``d1``; ``loop = loop + 1`` never bottoms out.
CHAIN = {f"d{k}": ast.Name(ident=f"d{k + 1}") for k in range(16)} | {
    "d16": ast.MyRank(),
    "loop": ast.BinOp(
        op="+", left=ast.Name(ident="loop"), right=ast.Const(value=1)
    ),
}
NAMES = ("d0", "d1", "d8", "d16", "loop", "drawn", "unbound")

_known = st.one_of(
    st.integers(-3, 6).map(lambda v: ast.Const(value=v)),
    st.booleans().map(lambda v: ast.Const(value=v)),
    st.just(ast.MyRank()),
    st.just(ast.NProcs()),
)
_unknown = st.one_of(
    st.just(ast.InputData(label="k")),
    st.sampled_from(NAMES).map(lambda name: ast.Name(ident=name)),
)


def _compound(inner):
    binary = st.builds(
        lambda op, left, right: ast.BinOp(op=op, left=left, right=right),
        st.sampled_from(BINARY), inner, inner,
    )
    unary = st.builds(
        lambda op, operand: ast.UnaryOp(op=op, operand=operand),
        st.sampled_from(("-", "not", "not", "~")), inner,
    )
    call = st.builds(
        lambda func, args: ast.Call(func=func, args=args),
        st.sampled_from(("min", "max", "abs", "abs", "combine")),
        st.lists(inner, max_size=3),
    )
    return st.one_of(binary, binary, unary, call)


# Known leaves outnumber unknown ones, or most trees are unknown at
# every point and the short-circuit cases are never exercised.
expressions = st.recursive(
    st.one_of(_known, _known, _known, _unknown), _compound, max_leaves=12
)

POINTS = universe_points(Universe().sizes)


def _oracle(expr, ranks, nprocs, defs):
    """Per-point values, or the exception type some point raised."""
    try:
        return [scalar_eval(expr, r, n, defs) for r, n in zip(ranks, nprocs)]
    except Exception as error:  # noqa: BLE001 — the type is the verdict
        return type(error)


def _vector(expr, ranks, nprocs, defs):
    try:
        return evaluate(expr, ranks, nprocs, defs)
    except Exception as error:  # noqa: BLE001
        return type(error)


def _one_point(expr, rank, nprocs, defs):
    try:
        return [abstract_eval(expr, rank, nprocs, defs)]
    except Exception as error:  # noqa: BLE001
        return type(error)


@settings(max_examples=300, deadline=None)
@given(expr=expressions, drawn=expressions, with_defs=st.booleans())
def test_universe_evaluation_equals_the_scalar_oracle(expr, drawn, with_defs):
    defs = CHAIN | {"drawn": drawn} if with_defs else None
    ranks, nprocs = POINTS
    assert _vector(expr, ranks, nprocs, defs) == _oracle(
        expr, ranks, nprocs, defs
    )


@settings(max_examples=150, deadline=None)
@given(
    expr=expressions,
    drawn=expressions,
    keep=st.lists(st.booleans(), min_size=len(POINTS[0]),
                  max_size=len(POINTS[0])),
)
def test_scattered_points_equal_the_scalar_oracle(expr, drawn, keep):
    """Endpoints are evaluated over the points that reach them only."""
    defs = CHAIN | {"drawn": drawn}
    ranks = [r for r, k in zip(POINTS[0], keep) if k]
    nprocs = [n for n, k in zip(POINTS[1], keep) if k]
    assert _vector(expr, ranks, nprocs, defs) == _oracle(
        expr, ranks, nprocs, defs
    )


@settings(max_examples=100, deadline=None)
@given(expr=expressions, rank=st.integers(0, 9), nprocs=st.integers(1, 10))
def test_one_point_case_is_abstract_eval(expr, rank, nprocs):
    defs = CHAIN | {"drawn": ast.Const(value=2)}
    assert _one_point(expr, rank, nprocs, defs) == _oracle(
        expr, [rank], [nprocs], defs
    )


def test_chain_one_past_the_cap_is_unknown():
    ranks, nprocs = POINTS
    assert evaluate(ast.Name(ident="d1"), ranks, nprocs, CHAIN) == ranks
    assert evaluate(ast.Name(ident="d0"), ranks, nprocs, CHAIN) == [
        None
    ] * len(ranks)
