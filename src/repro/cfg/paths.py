"""Path queries over CFGs.

Phase III works on the checkpoint nodes "along every path from the
entry node to the exit node" (paper §2): the *i*-th checkpoint node on
path γ is ``C_i^γ`` and ``S_i`` collects the ``C_i`` of every path. A
"path" here traverses each loop body at most once — i.e. the acyclic
paths of the DAG obtained by removing backward edges — matching the
paper's convention that a checkpoint statement inside a loop keeps the
same index on every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.dominators import natural_loops
from repro.cfg.graph import CFG, Edge
from repro.errors import CFGError


@dataclass(frozen=True)
class OnceThrough:
    """The *once-through* DAG of a CFG, with the orders analyses need.

    Attributes:
        edges: Out-edges per node. Control edges keep their labels;
            the synthetic loop-tail → loop-exit edges carry ``""``.
        order: The nodes reachable from the entry, topologically sorted.
        live: The nodes on at least one complete entry→exit path.
    """

    edges: dict[int, tuple[Edge, ...]]
    order: tuple[int, ...]
    live: frozenset[int]


def once_through(cfg: CFG) -> OnceThrough:
    """The once-through DAG of *cfg*, derived once per graph.

    The paper enumerates checkpoints "along every path from entry to
    exit", where a path traverses each loop body exactly once (a
    checkpoint inside a loop keeps the same index on every iteration,
    and the zero-trip path would make every loop program unbalanced).
    The once-through DAG realises that convention:

    - each backward edge ``tail -> header`` is removed and replaced by
      edges ``tail -> s`` for every loop-exit successor ``s`` of the
      header (looking through an exit that is itself the backward edge
      of an enclosing loop — a loop ending in a loop), and
    - the header's own loop-exit edges are removed, so the only way past
      a loop header is through its body.
    """
    return cfg.derived("once_through", _once_through)


def _once_through(cfg: CFG) -> OnceThrough:
    if cfg.entry_id is None or cfg.exit_id is None:
        raise CFGError("CFG must have entry and exit nodes")
    edges: dict[int, list[Edge]] = {
        node.node_id: cfg.out_edges(node.node_id) for node in cfg.nodes()
    }
    # Collect, per loop header, the union of its loops' bodies (a header
    # with several back edges has several natural loops; merge them).
    loops = natural_loops(cfg)
    header_body: dict[int, set[int]] = {}
    for edge, body in loops.items():
        header_body.setdefault(edge.dst, set()).update(body)

    def leave(header: int) -> list[int]:
        # Where control goes once the loop is done. An exit edge that is
        # an enclosing loop's backward edge (a loop ending in a loop)
        # leaves that loop too: its body has been traversed once.
        return [
            target
            for e in cfg.out_edges(header)
            if e.dst not in header_body[header]
            for target in (leave(e.dst) if e in loops else [e.dst])
        ]

    for header, body in header_body.items():
        edges[header] = [e for e in cfg.out_edges(header) if e.dst in body]
    for tail, header in loops:
        edges[tail] = [e for e in edges[tail] if e.dst != header]
        # An inner loop's header leaves through that loop's own tails.
        if tail == header or tail not in header_body:
            edges[tail].extend(Edge(tail, target) for target in leave(header))

    # Kahn topological order over the part reachable from the entry.
    reachable = _closure(cfg.entry_id, lambda n: (e.dst for e in edges[n]))
    pred: dict[int, list[int]] = {node_id: [] for node_id in reachable}
    for node_id in reachable:
        for edge in edges[node_id]:
            pred[edge.dst].append(node_id)
    indegree = {node_id: len(pred[node_id]) for node_id in reachable}
    frontier = [n for n, d in indegree.items() if d == 0]
    order: list[int] = []
    while frontier:
        current = frontier.pop()
        order.append(current)
        for edge in edges[current]:
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                frontier.append(edge.dst)
    if len(order) != len(reachable):
        # Never a graph the builder produces: its loops are natural loops.
        raise CFGError("a cycle survives the removal of backward edges")
    live = (
        _closure(cfg.exit_id, pred.__getitem__)
        if cfg.exit_id in reachable
        else set()
    )
    return OnceThrough(
        edges={node_id: tuple(out) for node_id, out in edges.items()},
        order=tuple(order),
        live=frozenset(live),
    )


def _closure(start: int, neighbours) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in neighbours(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class CheckpointIndexing:
    """The ``S_i`` collections computed *without* path enumeration.

    Produced by :func:`index_checkpoints` via a bitset dynamic program
    over the once-through DAG in O(V·E/64) time. ``path_counts`` is the
    sorted set of distinct per-path checkpoint counts (a single element
    iff ``balanced``).
    """

    columns: tuple[frozenset[int], ...]
    path_counts: tuple[int, ...]
    balanced: bool

    @property
    def depth(self) -> int:
        """The common number of checkpoints per path (min if unbalanced)."""
        return len(self.columns)


def index_checkpoints(cfg: CFG) -> CheckpointIndexing:
    """Compute the ``S_i`` collections by bitset DP (no enumeration).

    For every node ``v`` of the once-through DAG (processed in
    topological order) the DP maintains an integer bitmask whose bit
    ``k`` is set iff some entry→``v`` path passes exactly ``k``
    checkpoint nodes strictly before ``v``. A checkpoint node with bit
    ``k`` set that also reaches the exit is therefore the ``(k+1)``-th
    checkpoint of some complete path — i.e. a member of ``S_{k+1}`` —
    and the exit node's mask enumerates the per-path checkpoint counts,
    so balance is a popcount check. Exact, not an approximation: on a
    DAG every entry→``v`` prefix extends to a complete path through any
    ``v``→exit suffix.
    """
    dag = once_through(cfg)
    checkpoints = {node.node_id for node in cfg.checkpoint_nodes()}
    mask: dict[int, int] = dict.fromkeys(dag.order, 0)
    mask[cfg.entry_id] = 1
    for node_id in dag.order:
        incoming = mask[node_id]
        if not incoming:
            continue
        outgoing = incoming << 1 if node_id in checkpoints else incoming
        for edge in dag.edges[node_id]:
            mask[edge.dst] |= outgoing

    exit_mask = mask.get(cfg.exit_id, 0)
    path_counts = tuple(_bit_positions(exit_mask))
    balanced = len(path_counts) <= 1
    depth = path_counts[0] if path_counts else 0
    columns_builder: list[set[int]] = [set() for _ in range(depth)]
    for node_id in checkpoints & dag.live:
        node_mask = mask[node_id]
        for i in range(depth):
            if node_mask >> i & 1:
                columns_builder[i].add(node_id)
    return CheckpointIndexing(
        columns=tuple(frozenset(column) for column in columns_builder),
        path_counts=path_counts,
        balanced=balanced,
    )


def surplus_checkpoint(cfg: CFG, minimum: int) -> int:
    """The checkpoint Phase III hoists to rebalance *cfg*.

    Among the entry→exit paths of the once-through DAG that carry more
    than *minimum* checkpoints (the fewest any path carries), take the
    first in depth-first order, last successor first; return its
    ``(minimum + 1)``-th checkpoint node.

    No path is listed. One backward pass gives ``most[v]``, the most
    checkpoints any ``v``→exit path passes, ``v`` included; then a walk
    from the entry, having passed ``seen`` checkpoints, steps to the
    last successor ``s`` with ``seen + most[s] > minimum``. That is the
    depth-first search's first surplus path: the search lists paths in
    lexicographic order of their successor choices (last successor
    first), so the first path with a surplus takes, at every node, the
    last successor through which some completion still has a surplus —
    and a completion through ``s`` has one exactly when ``seen +
    most[s] > minimum``. Every step keeps ``seen + most[v] > minimum``
    at the current node ``v`` (``most[exit]`` is 0), so the walk meets
    that path's ``(minimum + 1)``-th checkpoint before the exit and
    stops there.

    Raises :class:`~repro.errors.CFGError` if no path carries more
    than *minimum* checkpoints.
    """
    dag = once_through(cfg)
    checkpoints = {node.node_id for node in cfg.checkpoint_nodes()}
    most: dict[int, int] = {}
    for node_id in reversed(dag.order):
        if node_id in dag.live:
            most[node_id] = (node_id in checkpoints) + max(
                (most[e.dst] for e in dag.edges[node_id] if e.dst in most),
                default=0,
            )
    if most.get(cfg.entry_id, 0) <= minimum:
        raise CFGError(f"no path carries more than {minimum} checkpoints")
    node_id, seen = cfg.entry_id, 0
    while True:
        if node_id in checkpoints:
            seen += 1
            if seen > minimum:
                return node_id
        node_id = next(
            e.dst for e in reversed(dag.edges[node_id])
            if seen + most.get(e.dst, -1) > minimum
        )


def _bit_positions(value: int) -> list[int]:
    """The indices of the set bits of *value*, ascending."""
    positions: list[int] = []
    index = 0
    while value:
        if value & 1:
            positions.append(index)
        value >>= 1
        index += 1
    return positions
