"""Dominators, backward edges, and natural loops.

The paper identifies loops via dominators: an edge ``<a, b>`` is a
*backward edge* if ``b`` dominates ``a``, and the loop of a backward
edge consists of all nodes on paths from ``b`` to ``a`` (Section 2).
This module implements the classic iterative dominator dataflow (the
CFGs here are small, so the simple O(n²) fixpoint is plenty) and the
natural-loop construction.
"""

from __future__ import annotations

from repro.cfg.graph import CFG, Edge
from repro.errors import CFGError


def compute_dominators(cfg: CFG) -> dict[int, frozenset[int]]:
    """Return ``dom[v]`` = the set of nodes dominating ``v``.

    Every node dominates itself; the entry node dominates every node
    reachable from it. Unreachable nodes (which the builder never
    produces) would be reported as dominated by everything, so we guard
    by restricting to reachable nodes. Computed once per graph (see
    :meth:`~repro.cfg.graph.CFG.derived`); treat the result as read-only.
    """
    return cfg.derived("dominators", _dominators)


def _dominators(cfg: CFG) -> dict[int, frozenset[int]]:
    if cfg.entry_id is None:
        raise CFGError("CFG has no entry node")
    reachable = _reachable(cfg, cfg.entry_id)
    all_ids = frozenset(reachable)
    dom: dict[int, set[int]] = {
        v: ({v} if v == cfg.entry_id else set(all_ids)) for v in reachable
    }
    changed = True
    while changed:
        changed = False
        for v in reachable:
            if v == cfg.entry_id:
                continue
            preds = [p for p in cfg.predecessors(v) if p in all_ids]
            if preds:
                new = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()
            new.add(v)
            if new != dom[v]:
                dom[v] = new
                changed = True
    return {v: frozenset(s) for v, s in dom.items()}


def _reachable(cfg: CFG, start: int) -> list[int]:
    seen = {start}
    order = [start]
    stack = [start]
    while stack:
        current = stack.pop()
        for nxt in cfg.successors(current):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                stack.append(nxt)
    return order


def dominates(dom: dict[int, frozenset[int]], a: int, b: int) -> bool:
    """True iff node *a* dominates node *b*."""
    return a in dom.get(b, frozenset())


def find_back_edges(cfg: CFG) -> list[Edge]:
    """All backward edges ``<a, b>`` (i.e. *b* dominates *a*)."""
    dom = compute_dominators(cfg)
    return [e for e in cfg.edges() if e.dst in dom.get(e.src, frozenset())]


def natural_loops(cfg: CFG) -> dict[Edge, frozenset[int]]:
    """Map each backward edge to its natural loop's node-id set.

    The natural loop of backward edge ``<a, b>`` is ``{b}`` plus every
    node that can reach ``a`` without passing through ``b``.
    """
    loops: dict[Edge, frozenset[int]] = {}
    for edge in find_back_edges(cfg):
        header, tail = edge.dst, edge.src
        body = {header, tail}
        stack = [tail]
        while stack:
            current = stack.pop()
            if current == header:
                continue
            for pred in cfg.predecessors(current):
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        loops[edge] = frozenset(body)
    return loops


def loop_headers(cfg: CFG) -> frozenset[int]:
    """Node ids that are targets of at least one backward edge."""
    return frozenset(e.dst for e in find_back_edges(cfg))
