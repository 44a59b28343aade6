"""Dominators, backward edges, and natural loops.

The paper identifies loops via dominators: an edge ``<a, b>`` is a
*backward edge* if ``b`` dominates ``a``, and the loop of a backward
edge consists of all nodes on paths from ``b`` to ``a`` (Section 2).
This module computes immediate dominators with the Cooper–Harvey–Kennedy
algorithm ("A Simple, Fast Dominance Algorithm", 2001: iterate over
reverse postorder, intersecting predecessors' dominator-tree paths) and
builds the natural loops on top.
"""

from __future__ import annotations

from repro.cfg.graph import CFG, Edge
from repro.errors import CFGError


def compute_dominators(cfg: CFG) -> dict[int, frozenset[int]]:
    """Return ``dom[v]`` = the set of nodes dominating ``v``.

    Every node dominates itself; the entry node dominates every node
    reachable from it. Only nodes reachable from the entry get an entry
    (the builder produces no others). Computed once per graph (see
    :meth:`~repro.cfg.graph.CFG.derived`); treat the result as read-only.
    """
    return cfg.derived("dominators", _dominators)


def _dominators(cfg: CFG) -> dict[int, frozenset[int]]:
    if cfg.entry_id is None:
        raise CFGError("CFG has no entry node")
    order = _reverse_postorder(cfg, cfg.entry_id)
    number = {node_id: position for position, node_id in enumerate(order)}
    entry = cfg.entry_id
    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = None
            for p in cfg.predecessors(v):
                if p not in idom:
                    continue
                if new is None:
                    new = p
                    continue
                # Walk both fingers up the tree to their common ancestor.
                a, b = p, new
                while a != b:
                    while number[a] > number[b]:
                        a = idom[a]
                    while number[b] > number[a]:
                        b = idom[b]
                new = a
            if idom.get(v) != new:
                idom[v] = new
                changed = True
    dom = {entry: frozenset((entry,))}
    for v in order[1:]:
        dom[v] = dom[idom[v]] | {v}
    return dom


def _reverse_postorder(cfg: CFG, start: int) -> list[int]:
    """Nodes reachable from *start*, each after all its DFS ancestors."""
    seen = {start}
    postorder: list[int] = []
    stack = [(start, iter(cfg.successors(start)))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(cfg.successors(child))))
                break
        else:
            stack.pop()
            postorder.append(node)
    postorder.reverse()
    return postorder


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
