"""Phase II: generating the extended CFG (paper §3.2, Algorithm 3.1).

For every receive node we determine its *source attribute* (the ranks
that can reach it + its source parameter) and compare it against the
*destination attribute* of every send node. Pairs whose attributes do
not contradict — decided exactly over a finite universe of system
sizes — become message edges of the extended CFG.

Two deliberate engineering choices, both documented in DESIGN.md:

- **Collective statements** are pre-matched: the builder lowers
  ``bcast`` to a collective send/recv pair from the same statement, and
  the paper notes such matches are trivially determined.
- **We keep every compatible match**, not just the first unmatched one.
  Lemma 3.1 only needs the true sender to be *among* the matches; a
  superset of message edges can only make Phase III more conservative,
  never unsafe.

Nothing the match reads — send/recv statements, branch conditions,
assignments, nesting — changes when ``checkpoint`` statements move, so
its result is also available as statement-level facts
(:func:`statement_edges`) that :func:`attach_message_edges` replays
onto the CFG of any checkpoint placement of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attributes.contradiction import (
    CompatibilityReport,
    Universe,
    tables_compatible,
)
from repro.attributes.dataflow import classify_variables, single_assignments
from repro.attributes.domain import node_tables
from repro.cfg.builder import build_cfg
from repro.cfg.graph import CFG, ExtendedCFG
from repro.cfg.nodes import NodeKind
from repro.cfg.paths import once_through
from repro.errors import MatchingError
from repro.lang import ast_nodes as ast

#: One message edge as ``(send statement id, recv statement id, reason)``.
StatementEdge = tuple[int, int, str]


@dataclass
class MatchingResult:
    """The extended CFG plus diagnostics from the matching pass."""

    extended: ExtendedCFG
    report: CompatibilityReport = field(default_factory=CompatibilityReport)
    unmatched_recv_ids: tuple[int, ...] = ()


def build_extended_cfg(
    program: ast.Program,
    cfg: CFG | None = None,
    universe: Universe = Universe(),
    require_complete: bool = True,
) -> ExtendedCFG:
    """Run Algorithm 3.1 on *program*; return its extended CFG.

    With *require_complete* (the default), a receive node that matches
    no send node raises :class:`~repro.errors.MatchingError` — such a
    program would block forever on that receive, so the analysis refuses
    it. Pass ``False`` to get the partial extended CFG for diagnostics.
    """
    return match_messages(
        program, cfg=cfg, universe=universe, require_complete=require_complete
    ).extended


def match_messages(
    program: ast.Program,
    cfg: CFG | None = None,
    universe: Universe = Universe(),
    require_complete: bool = True,
) -> MatchingResult:
    """Run Algorithm 3.1 and return the extended CFG with diagnostics."""
    if cfg is None:
        cfg = build_cfg(program)
    extended = ExtendedCFG(cfg)
    report = CompatibilityReport()

    _match_collectives(cfg, extended)

    met = [n for n in map(cfg.node, _first_met(cfg)) if not n.collective]
    sends = {n.node_id: n.stmt.dest for n in met if n.kind is NodeKind.SEND}
    recvs = {n.node_id: n.stmt.source for n in met if n.kind is NodeKind.RECV}
    if sends and recvs:
        tables = node_tables(
            cfg,
            sends | recvs,
            classify_variables(program),
            single_assignments(program),
            universe.sizes,
        )
        for recv_id in recvs:
            for send_id in sends:
                witness = tables_compatible(tables[send_id], tables[recv_id])
                report.record(send_id, recv_id, witness)
                if witness is not None:
                    extended.add_message_edge(
                        send_id,
                        recv_id,
                        reason=(
                            f"n={witness.nprocs}: "
                            f"P{witness.sender} -> P{witness.receiver}"
                        ),
                    )

    unmatched = tuple(
        node.node_id
        for node in cfg.recv_nodes()
        if not extended.matches_for_recv(node.node_id)
    )
    if unmatched and require_complete:
        labels = ", ".join(repr(cfg.node(i)) for i in unmatched)
        raise MatchingError(
            f"receive node(s) with no matching send: {labels}"
        )
    return MatchingResult(
        extended=extended, report=report, unmatched_recv_ids=unmatched
    )


def _first_met(cfg: CFG) -> list[int]:
    """Node ids in the order a depth-first enumeration of the
    once-through paths (``false`` arm first) first meets them.

    Message edges are added receive-major, send-minor in this order; it
    fixes the successor order Phase III's witness search walks, hence
    which violation it repairs first. Checkpoint motion preserves it:
    arms are ordered by label, not by edge insertion — the builder adds
    the ``true`` edge of an empty ``then`` arm after the ``else`` arm's.
    """
    edges = once_through(cfg).edges
    met: dict[int, None] = {}
    stack = [cfg.entry_id]
    while stack:
        node_id = stack.pop()
        if node_id not in met:
            met[node_id] = None
            out = sorted(edges[node_id], key=lambda e: e.label == "false")
            stack.extend(edge.dst for edge in out)
    return list(met)


def statement_edges(extended: ExtendedCFG) -> tuple[StatementEdge, ...]:
    """The message edges of *extended*, keyed by AST statement ids."""
    node = extended.cfg.node
    return tuple(
        (node(m.send_id).stmt.node_id, node(m.recv_id).stmt.node_id, m.reason)
        for m in extended.message_edges
    )


def attach_message_edges(
    cfg: CFG, edges: tuple[StatementEdge, ...]
) -> ExtendedCFG:
    """Replay :func:`statement_edges` facts onto *cfg*, in their order.

    *cfg* must be built from the program the facts were matched on, or
    from any rearrangement of its ``checkpoint`` statements; the result
    then equals a fresh :func:`build_extended_cfg`, edge order included.
    """
    node_id = {
        (n.stmt.node_id, n.kind): n.node_id
        for n in cfg.send_nodes() + cfg.recv_nodes()
    }
    extended = ExtendedCFG(cfg)
    for send_stmt, recv_stmt, reason in edges:
        extended.add_message_edge(
            node_id[send_stmt, NodeKind.SEND],
            node_id[recv_stmt, NodeKind.RECV],
            reason,
        )
    return extended


def _match_collectives(cfg: CFG, extended: ExtendedCFG) -> None:
    """Pre-match send/recv node pairs lowered from the same collective."""
    by_stmt: dict[int, dict[NodeKind, int]] = {}
    for node in cfg.nodes():
        if node.collective and node.stmt is not None:
            by_stmt.setdefault(node.stmt.node_id, {})[node.kind] = node.node_id
    for pair in by_stmt.values():
        if NodeKind.SEND in pair and NodeKind.RECV in pair:
            extended.add_message_edge(
                pair[NodeKind.SEND], pair[NodeKind.RECV], reason="collective"
            )
