"""CFG construction from a MiniMP AST.

The builder produces one node per message/checkpoint statement, branch
nodes for ``if``/``while``/``for`` conditions, join nodes at merges, and
a single entry/exit pair — the node inventory of the paper's Section 2.

``bcast`` statements are lowered to a rank-dependent branch whose true
path holds a *collective* send node and whose false path holds a
*collective* receive node (the paper notes every collective statement
reduces to send/receive statements whose message edges are trivially
determined; Phase II pre-matches collective pairs by their originating
statement).
"""

from __future__ import annotations

from repro.cfg.graph import CFG
from repro.cfg.nodes import NodeKind
from repro.lang import ast_nodes as ast
from repro.lang.printer import expr_to_source


def build_cfg(program: ast.Program) -> CFG:
    """Build and return the CFG of *program*."""
    cfg = CFG()
    entry = cfg.add_node(NodeKind.ENTRY, label="entry")
    exits = _build_block(cfg, program.body, [(entry.node_id, "")])
    exit_node = cfg.add_node(NodeKind.EXIT, label="exit")
    _connect(cfg, exits, exit_node.node_id)
    return cfg


def _connect(cfg: CFG, exits: list[tuple[int, str]], target: int) -> None:
    """Wire every dangling (node, edge-label) exit to *target*."""
    for src, label in exits:
        cfg.add_edge(src, target, label)


def _build_block(
    cfg: CFG, block: ast.Block, preds: list[tuple[int, str]]
) -> list[tuple[int, str]]:
    """Build *block*, attaching it to *preds*; returns its dangling exits."""
    current = preds
    for stmt in block.statements:
        current = _build_statement(cfg, stmt, current)
    return current


def _build_statement(
    cfg: CFG, stmt: ast.Stmt, preds: list[tuple[int, str]]
) -> list[tuple[int, str]]:
    if isinstance(stmt, ast.Send):
        node = cfg.add_node(
            NodeKind.SEND, stmt=stmt, label=f"send({expr_to_source(stmt.dest)})"
        )
        _connect(cfg, preds, node.node_id)
        return [(node.node_id, "")]
    if isinstance(stmt, ast.Recv):
        node = cfg.add_node(
            NodeKind.RECV,
            stmt=stmt,
            label=f"{stmt.target} = recv({expr_to_source(stmt.source)})",
        )
        _connect(cfg, preds, node.node_id)
        return [(node.node_id, "")]
    if isinstance(stmt, ast.Checkpoint):
        node = cfg.add_node(NodeKind.CHECKPOINT, stmt=stmt, label="chkpt")
        _connect(cfg, preds, node.node_id)
        return [(node.node_id, "")]
    if isinstance(stmt, (ast.Assign, ast.Compute, ast.Pass)):
        node = cfg.add_node(NodeKind.COMPUTE, stmt=stmt, label=_compute_label(stmt))
        _connect(cfg, preds, node.node_id)
        return [(node.node_id, "")]
    if isinstance(stmt, ast.Bcast):
        return _build_bcast(cfg, stmt, preds)
    if isinstance(stmt, ast.If):
        return _build_if(cfg, stmt, preds)
    if isinstance(stmt, ast.While):
        return _build_loop(
            cfg, stmt, stmt.body, f"while {expr_to_source(stmt.cond)}", preds
        )
    if isinstance(stmt, ast.For):
        label = f"for {stmt.var} in range({expr_to_source(stmt.count)})"
        return _build_loop(cfg, stmt, stmt.body, label, preds)
    raise TypeError(f"unknown statement node: {stmt!r}")


def _compute_label(stmt: ast.Stmt) -> str:
    if isinstance(stmt, ast.Assign):
        return f"{stmt.target} = {expr_to_source(stmt.value)}"
    if isinstance(stmt, ast.Compute):
        return f"compute({expr_to_source(stmt.cost)})"
    return "pass"


def _build_if(
    cfg: CFG, stmt: ast.If, preds: list[tuple[int, str]]
) -> list[tuple[int, str]]:
    branch = cfg.add_node(
        NodeKind.BRANCH, stmt=stmt, label=f"if {expr_to_source(stmt.cond)}"
    )
    _connect(cfg, preds, branch.node_id)
    then_exits = _build_block(cfg, stmt.then_block, [(branch.node_id, "true")])
    else_exits = _build_block(cfg, stmt.else_block, [(branch.node_id, "false")])
    join = cfg.add_node(NodeKind.JOIN, label="join")
    _connect(cfg, then_exits + else_exits, join.node_id)
    return [(join.node_id, "")]


def _build_loop(
    cfg: CFG,
    stmt: ast.Stmt,
    body: ast.Block,
    label: str,
    preds: list[tuple[int, str]],
) -> list[tuple[int, str]]:
    header = cfg.add_node(
        NodeKind.BRANCH, stmt=stmt, label=label, is_loop_header=True
    )
    _connect(cfg, preds, header.node_id)
    body_exits = _build_block(cfg, body, [(header.node_id, "true")])
    # The edges from the body's last nodes back to the header are the
    # CFG's backward edges (the header dominates every body node).
    _connect(cfg, body_exits, header.node_id)
    return [(header.node_id, "false")]


def _build_bcast(
    cfg: CFG, stmt: ast.Bcast, preds: list[tuple[int, str]]
) -> list[tuple[int, str]]:
    root_text = expr_to_source(stmt.root)
    branch = cfg.add_node(
        NodeKind.BRANCH, stmt=stmt, label=f"if myrank == {root_text}"
    )
    branch.attrs["bcast"] = True
    _connect(cfg, preds, branch.node_id)
    send = cfg.add_node(
        NodeKind.SEND,
        stmt=stmt,
        label=f"bcast-send(root={root_text})",
        collective=True,
    )
    cfg.add_edge(branch.node_id, send.node_id, "true")
    recv = cfg.add_node(
        NodeKind.RECV,
        stmt=stmt,
        label=f"{stmt.target} = bcast-recv(root={root_text})",
        collective=True,
    )
    cfg.add_edge(branch.node_id, recv.node_id, "false")
    join = cfg.add_node(NodeKind.JOIN, label="join")
    _connect(cfg, [(send.node_id, ""), (recv.node_id, "")], join.node_id)
    return [(join.node_id, "")]
