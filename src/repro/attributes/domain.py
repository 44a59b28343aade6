"""Rank reachability: which processes can execute each CFG node.

The paper (§3.2) characterises "every control path in the CFG from [a]
branch node" by an *attribute* driven from the branch's condition, and
Algorithm 3.1 matches a send with a receive when some path to each
gives attributes that do not contradict. The two paths are chosen
independently, so all the algorithm uses of a node is the *union over
its paths* of the ranks each path admits — and that union is a forward
may-analysis on the once-through DAG, one integer bitmask per node
whose bits are the ``(size, rank)`` points of the whole universe
(:func:`~repro.attributes.expressions.universe_points`)::

    reach(entry) = all points
    reach(v)     = OR over edges u→v of  reach(u) AND guard(u→v)

``guard`` is "points at which the condition is not known to take the
other arm" on the ``true``/``false`` edges of an ID-dependent branch
and all points everywhere else. Every transfer function is an
intersection with a constant and the join is union, so the framework
is distributive and the fixed point *equals* the meet over all paths:
exact, with no path ever enumerated. Guards sit on edges, not node
pairs, so the parallel ``true``/``false`` edges of a branch whose arms
are both empty keep their own polarity.
"""

from __future__ import annotations

from repro.attributes.dataflow import (
    ConditionClass,
    VariableClasses,
    classify_condition,
)
from repro.attributes.expressions import evaluate, universe_points
from repro.cfg.graph import CFG
from repro.cfg.nodes import CFGNode, NodeKind
from repro.cfg.paths import once_through
from repro.lang import ast_nodes as ast

#: Per system size, the ``(rank, endpoint value or None)`` rows of the
#: ranks that can reach one send/recv node.
NodeTable = dict[int, list[tuple[int, int | None]]]


def node_tables(
    cfg: CFG,
    endpoints: dict[int, ast.Expr],
    classes: VariableClasses,
    defs: dict[str, ast.Expr] | None,
    sizes: tuple[int, ...],
) -> dict[int, NodeTable]:
    """Admitted ranks × endpoint value of each send/recv in *endpoints*
    (node id → destination or source expression).

    Every ``(size, rank)`` point of the universe is one bit of a mask,
    so the dataflow runs once for all sizes at once. Each ID-dependent
    condition is evaluated once over every point and each endpoint once
    over the points that reach it, whatever the number of paths or
    sizes. Non-ID-dependent branches guard nothing, per the paper
    ("without loss of generality, we assume that all the branch nodes
    are ID-dependent"); irregular conditions cannot constrain ranks.
    """
    dag = once_through(cfg)
    sizes = tuple(dict.fromkeys(sizes))
    ranks, nprocs = universe_points(sizes)
    guards = {}
    for node in cfg.nodes_of_kind(NodeKind.BRANCH):
        cond = _branch_condition(node)
        if cond is None or classify_condition(cond, classes) is not (
            ConditionClass.ID_DEPENDENT
        ):
            continue
        values = evaluate(cond, ranks, nprocs, defs)
        guards[node.node_id] = {
            "true": _mask(value is None or value for value in values),
            "false": _mask(not value for value in values),
        }
    reach = dict.fromkeys(dag.edges, 0)
    reach[cfg.entry_id] = (1 << len(ranks)) - 1
    for node_id in dag.order:
        mask = reach[node_id]
        if not mask:
            continue
        guard = guards.get(node_id, {})
        for edge in dag.edges[node_id]:
            reach[edge.dst] |= mask & guard.get(edge.label, mask)
    tables: dict[int, NodeTable] = {}
    for node_id, endpoint in endpoints.items():
        mask = reach[node_id]
        points = [k for k in range(len(ranks)) if mask >> k & 1]
        table: NodeTable = {size: [] for size in sizes}
        if points:
            values = evaluate(
                endpoint,
                [ranks[k] for k in points],
                [nprocs[k] for k in points],
                defs,
            )
            for k, value in zip(points, values):
                table[nprocs[k]].append((ranks[k], value))
        tables[node_id] = table
    return tables


def _mask(flags) -> int:
    """The integer whose bit ``k`` is the truth of ``flags[k]``."""
    bits = "".join("1" if flag else "0" for flag in flags)
    return int(bits[::-1] or "0", 2)


def _branch_condition(node: CFGNode) -> ast.Expr | None:
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While)):
        return stmt.cond
    if isinstance(stmt, ast.Bcast):
        # The lowered bcast branch tests `myrank == root`.
        return ast.BinOp(op="==", left=ast.MyRank(), right=stmt.root)
    # `for` headers iterate a counter; never ID-dependent.
    return None
