"""The iterative set-intersection dominator fixpoint, as a test oracle.

:func:`~repro.cfg.dominators.compute_dominators` uses the
Cooper–Harvey–Kennedy immediate-dominator algorithm; this is the
classic dataflow it replaced (``dom(v) = {v} ∪ ⋂ dom(preds)`` iterated
to a fixpoint), kept so the differential tests can diff the two.
"""

from repro.cfg.graph import CFG


def dominators_by_fixpoint(cfg: CFG) -> dict[int, frozenset[int]]:
    """``dom[v]`` for every node reachable from the entry."""
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
