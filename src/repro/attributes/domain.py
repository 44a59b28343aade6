"""Rank reachability: which processes can execute each CFG node.

The paper (§3.2) characterises "every control path in the CFG from [a]
branch node" by an *attribute* driven from the branch's condition, and
Algorithm 3.1 matches a send with a receive when some path to each
gives attributes that do not contradict. The two paths are chosen
independently, so all the algorithm uses of a node is the *union over
its paths* of the ranks each path admits — and that union is a forward
may-analysis on the once-through DAG, one integer bitmask (bit ``r`` =
rank ``r``) per node and system size::

    reach(entry) = all ranks
    reach(v)     = OR over edges u→v of  reach(u) AND guard(u→v)

``guard`` is "ranks for which the condition is not known to take the
other arm" on the ``true``/``false`` edges of an ID-dependent branch
and all ranks everywhere else. Every transfer function is an
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
from repro.attributes.expressions import abstract_eval
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

    Each ID-dependent condition is evaluated once per ``(size, rank)``
    and each endpoint once per admitted ``(size, rank)``, whatever the
    number of paths. Non-ID-dependent branches guard nothing, per the
    paper ("without loss of generality, we assume that all the branch
    nodes are ID-dependent"); irregular conditions cannot constrain
    ranks.
    """
    dag = once_through(cfg)
    guarded = [
        (node.node_id, cond)
        for node in cfg.nodes_of_kind(NodeKind.BRANCH)
        if (cond := _branch_condition(node)) is not None
        and classify_condition(cond, classes) is ConditionClass.ID_DEPENDENT
    ]
    tables: dict[int, NodeTable] = {node_id: {} for node_id in endpoints}
    for nprocs in sizes:
        guards = {}
        for node_id, cond in guarded:
            taken = skipped = 0
            for rank in range(nprocs):
                value = abstract_eval(cond, rank, nprocs, defs)
                if value is None or value:
                    taken |= 1 << rank
                if not value:
                    skipped |= 1 << rank
            guards[node_id] = {"true": taken, "false": skipped}
        reach = dict.fromkeys(dag.edges, 0)
        reach[cfg.entry_id] = (1 << nprocs) - 1
        for node_id in dag.order:
            mask = reach[node_id]
            if not mask:
                continue
            guard = guards.get(node_id, {})
            for edge in dag.edges[node_id]:
                reach[edge.dst] |= mask & guard.get(edge.label, mask)
        for node_id, endpoint in endpoints.items():
            tables[node_id][nprocs] = [
                (rank, abstract_eval(endpoint, rank, nprocs, defs))
                for rank in range(nprocs)
                if reach[node_id] >> rank & 1
            ]
    return tables


def _branch_condition(node: CFGNode) -> ast.Expr | None:
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While)):
        return stmt.cond
    if isinstance(stmt, ast.Bcast):
        # The lowered bcast branch tests `myrank == root`.
        return ast.BinOp(op="==", left=ast.MyRank(), right=stmt.root)
    # `for` headers iterate a counter; never ID-dependent.
    return None
