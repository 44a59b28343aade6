"""Per-path reference for Algorithm 3.1 (the differential oracle).

This is the matching procedure the library shipped until the
rank-reachability dataflow (``repro.attributes.domain``) replaced it,
moved here unchanged in what it decides: it enumerates every
once-through path, gives each send/recv *occurrence* the ID-dependent
branch decisions of its path prefix (:class:`PathConstraint`,
:class:`NodeContext`), tabulates each context (:class:`ContextTable`)
and joins every (receive context, send context) pair. Exponential in
the number of branches; only tests import it.

Two deliberate differences, both about ``if`` arms left empty. A path
is a sequence of *edges*, not of node ids: the library code looked a
branch decision up by ``(src, dst)``, so the parallel ``true``/``false``
edges of a branch whose arms are both empty both read ``"true"`` — the
defect the dataflow fixes at the root. And a branch's arms are walked
``false`` first by *label*: the library code took them in edge-insertion
order, which the CFG builder flips for an empty ``then`` arm (its
``true`` edge is added after the ``else`` arm is built), so merely
moving a checkpoint into or out of such an arm reordered the paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attributes.contradiction import (
    MatchWitness,
    Universe,
    tables_compatible,
)
from repro.attributes.dataflow import (
    ConditionClass,
    VariableClasses,
    classify_condition,
    classify_variables,
    single_assignments,
)
from repro.cfg.builder import build_cfg
from repro.cfg.graph import CFG, Edge
from repro.cfg.nodes import NodeKind
from repro.cfg.paths import once_through
from repro.lang import ast_nodes as ast

from .scalar_eval import scalar_eval


@dataclass(frozen=True)
class PathConstraint:
    """One ID-dependent branch decision along a path."""

    condition: ast.Expr
    polarity: bool

    def holds(self, rank, nprocs, defs) -> bool | None:
        """Whether the constraint holds for *rank* (None: unknown)."""
        value = scalar_eval(self.condition, rank, nprocs, defs)
        if value is None:
            return None
        return bool(value) == self.polarity


@dataclass(frozen=True)
class NodeContext:
    """A send/recv node occurrence on one enumerated path."""

    node_id: int
    kind: NodeKind
    endpoint: ast.Expr
    constraints: tuple[PathConstraint, ...]
    path_index: int

    def admits_rank(self, rank, nprocs, defs) -> bool:
        """True iff a process with *rank* can reach this occurrence."""
        return all(
            constraint.holds(rank, nprocs, defs) is not False
            for constraint in self.constraints
        )

    def endpoint_value(self, rank, nprocs, defs) -> int | None:
        """The endpoint's concrete value for *rank*, or None if unknown."""
        return scalar_eval(self.endpoint, rank, nprocs, defs)


def edge_paths(cfg: CFG) -> list[tuple[Edge, ...]]:
    """Every entry→exit path of the once-through DAG, as edges.

    Same depth-first order as the enumeration oracle's
    ``tests/cfg/path_enumeration.py::acyclic_paths`` (last successor
    first), with ``false`` arms last.
    """
    edges = once_through(cfg).edges
    paths: list[tuple[Edge, ...]] = []
    stack: list[tuple[int, tuple[Edge, ...]]] = [(cfg.entry_id, ())]
    while stack:
        current, path = stack.pop()
        if current == cfg.exit_id:
            paths.append(path)
            continue
        for edge in sorted(edges[current], key=lambda e: e.label == "false"):
            stack.append((edge.dst, path + (edge,)))
    return paths


def _endpoint_of(stmt) -> ast.Expr:
    if isinstance(stmt, ast.Send):
        return stmt.dest
    if isinstance(stmt, ast.Recv):
        return stmt.source
    return stmt.root


def _branch_condition(stmt) -> ast.Expr | None:
    if isinstance(stmt, (ast.If, ast.While)):
        return stmt.cond
    if isinstance(stmt, ast.Bcast):
        return ast.BinOp(op="==", left=ast.MyRank(), right=stmt.root)
    return None


def node_contexts(cfg: CFG, classes: VariableClasses) -> list[NodeContext]:
    """The per-path contexts of every send/recv node, in path order."""
    contexts: list[NodeContext] = []
    for path_index, path in enumerate(edge_paths(cfg)):
        constraints: list[PathConstraint] = []
        for edge in path:
            node = cfg.node(edge.src)
            if node.kind in (NodeKind.SEND, NodeKind.RECV):
                contexts.append(
                    NodeContext(
                        node_id=node.node_id,
                        kind=node.kind,
                        endpoint=_endpoint_of(node.stmt),
                        constraints=tuple(constraints),
                        path_index=path_index,
                    )
                )
            if node.kind is NodeKind.BRANCH and edge.label:
                cond = _branch_condition(node.stmt)
                if cond is not None and (
                    classify_condition(cond, classes)
                    is ConditionClass.ID_DEPENDENT
                ):
                    constraints.append(
                        PathConstraint(cond, edge.label == "true")
                    )
    return contexts


class ContextTable:
    """Admissible ranks × endpoint value of one context, per size."""

    def __init__(self, ctx: NodeContext, defs, universe=Universe()) -> None:
        self.ctx = ctx
        self.rows: dict[int, list[tuple[int, int | None]]] = {
            nprocs: [
                (rank, ctx.endpoint_value(rank, nprocs, defs))
                for rank in range(nprocs)
                if ctx.admits_rank(rank, nprocs, defs)
            ]
            for nprocs in universe.sizes
        }


def endpoints_compatible(
    send_ctx: NodeContext, recv_ctx: NodeContext, defs, universe=Universe()
) -> MatchWitness | None:
    """A witness that the two contexts can be one message's ends."""
    return tables_compatible(
        ContextTable(send_ctx, defs, universe).rows,
        ContextTable(recv_ctx, defs, universe).rows,
    )


@dataclass
class PathMatch:
    """What the per-path procedure decides for one program.

    ``edges`` is the literal outcome of the old loop: ``(send node,
    recv node, reason)`` in discovery order (receive contexts major,
    send contexts minor, each pair decided by its first compatible
    context pair). ``path_insensitive`` says whether every node's
    contexts tabulate identically — then that order and those witnesses
    are functions of the nodes alone. When they are not, which context
    pair is met first is an accident of the enumeration order, so
    ``node_edges`` states the same decisions per *node* pair: receive
    nodes major and send nodes minor in first-met order, each matched
    pair with the least ``(size, sender, receiver)`` witness any of its
    context pairs yields. The two coincide on path-insensitive programs.
    """

    edges: list[tuple[int, int, str]]
    node_edges: list[tuple[int, int, str]]
    unmatched_recv_ids: tuple[int, ...]
    path_insensitive: bool


def _reason(witness: MatchWitness) -> str:
    return f"n={witness.nprocs}: P{witness.sender} -> P{witness.receiver}"


def match_by_paths(program: ast.Program, universe=Universe()) -> PathMatch:
    """Algorithm 3.1 by path enumeration (point-to-point nodes only)."""
    cfg = build_cfg(program)
    classes = classify_variables(program)
    defs = single_assignments(program)
    tables = [
        ContextTable(ctx, defs, universe)
        for ctx in node_contexts(cfg, classes)
        if not cfg.node(ctx.node_id).collective
    ]
    send_tables = [t for t in tables if t.ctx.kind is NodeKind.SEND]
    recv_tables = [t for t in tables if t.ctx.kind is NodeKind.RECV]
    edges: list[tuple[int, int, str]] = []
    matched: set[tuple[int, int]] = set()
    for recv_table in recv_tables:
        for send_table in send_tables:
            pair = (send_table.ctx.node_id, recv_table.ctx.node_id)
            if pair in matched:
                continue
            witness = tables_compatible(send_table.rows, recv_table.rows)
            if witness is not None:
                matched.add(pair)
                edges.append((*pair, _reason(witness)))

    def by_node(kind_tables):  # insertion order = first-met order
        groups: dict[int, list[ContextTable]] = {}
        for table in kind_tables:
            groups.setdefault(table.ctx.node_id, []).append(table)
        return groups

    size_rank = {nprocs: i for i, nprocs in enumerate(universe.sizes)}
    node_edges: list[tuple[int, int, str]] = []
    for recv_id, recv_group in by_node(recv_tables).items():
        for send_id, send_group in by_node(send_tables).items():
            witnesses = [
                witness
                for recv_table in recv_group
                for send_table in send_group
                if (witness := tables_compatible(
                    send_table.rows, recv_table.rows
                )) is not None
            ]
            if witnesses:
                least = min(witnesses, key=lambda w: (
                    size_rank[w.nprocs], w.sender, w.receiver
                ))
                node_edges.append((send_id, recv_id, _reason(least)))
    receivers = {recv_id for _, recv_id in matched}
    distinct: dict[int, set[str]] = {}
    for table in tables:
        distinct.setdefault(table.ctx.node_id, set()).add(repr(table.rows))
    return PathMatch(
        edges=edges,
        node_edges=node_edges,
        unmatched_recv_ids=tuple(
            node.node_id
            for node in cfg.recv_nodes()
            if not node.collective and node.node_id not in receivers
        ),
        path_insensitive=all(len(rows) == 1 for rows in distinct.values()),
    )
