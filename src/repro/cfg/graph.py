"""The CFG and extended-CFG data structures.

:class:`CFG` is a directed graph of :class:`~repro.cfg.nodes.CFGNode`
objects with labelled edges (branch edges carry ``"true"``/``"false"``).
:class:`ExtendedCFG` wraps a CFG together with its *message edges* — the
send→recv matches computed by Phase II (paper §3.2) — and answers the
path queries Phase III needs over the union of both edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cfg.nodes import CFGNode, NodeKind
from repro.errors import CFGError


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge with an optional label."""

    src: int
    dst: int
    label: str = ""

    def __iter__(self) -> Iterator[int]:
        return iter((self.src, self.dst))


class CFG:
    """A control-flow graph.

    Nodes are identified by small integer ids assigned at insertion.
    The graph always has exactly one ``ENTRY`` and one ``EXIT`` node,
    created by the builder.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, CFGNode] = {}
        self._succ: dict[int, list[Edge]] = {}
        self._pred: dict[int, list[Edge]] = {}
        self._next_id = 0
        self._derived: dict[str, object] = {}
        self.entry_id: int | None = None
        self.exit_id: int | None = None

    # -- construction --------------------------------------------------------

    def add_node(
        self,
        kind: NodeKind,
        stmt=None,
        label: str = "",
        is_loop_header: bool = False,
        collective: bool = False,
    ) -> CFGNode:
        """Create and register a new node; returns it."""
        self._derived.clear()
        node = CFGNode(
            node_id=self._next_id,
            kind=kind,
            stmt=stmt,
            label=label,
            is_loop_header=is_loop_header,
            collective=collective,
        )
        self._nodes[node.node_id] = node
        self._succ[node.node_id] = []
        self._pred[node.node_id] = []
        self._next_id += 1
        if kind is NodeKind.ENTRY:
            if self.entry_id is not None:
                raise CFGError("CFG already has an entry node")
            self.entry_id = node.node_id
        elif kind is NodeKind.EXIT:
            if self.exit_id is not None:
                raise CFGError("CFG already has an exit node")
            self.exit_id = node.node_id
        return node

    def add_edge(self, src: int, dst: int, label: str = "") -> Edge:
        """Add a directed edge ``src -> dst``."""
        if src not in self._nodes or dst not in self._nodes:
            raise CFGError(f"edge endpoints must exist: {src} -> {dst}")
        self._derived.clear()
        edge = Edge(src, dst, label)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    def derived(self, key: str, compute):
        """``compute(self)``, memoised under *key* until the graph changes.

        Holds the facts every analysis re-derives from the finished
        graph (dominators, the once-through DAG). The value is shared
        between callers, which must not mutate it.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = compute(self)
            return value

    # -- queries --------------------------------------------------------------

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def entry(self) -> CFGNode:
        """The unique entry node."""
        if self.entry_id is None:
            raise CFGError("CFG has no entry node")
        return self._nodes[self.entry_id]

    @property
    def exit(self) -> CFGNode:
        """The unique exit node."""
        if self.exit_id is None:
            raise CFGError("CFG has no exit node")
        return self._nodes[self.exit_id]

    def node(self, node_id: int) -> CFGNode:
        """Return the node with *node_id*."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise CFGError(f"unknown node id {node_id}") from None

    def nodes(self) -> Iterator[CFGNode]:
        """Iterate over all nodes in insertion order."""
        return iter(self._nodes.values())

    def nodes_of_kind(self, kind: NodeKind) -> list[CFGNode]:
        """All nodes of the given *kind*, in insertion order."""
        return [n for n in self._nodes.values() if n.kind is kind]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        for edges in self._succ.values():
            yield from edges

    def successors(self, node_id: int) -> list[int]:
        """Successor node ids of *node_id*, in edge-insertion order."""
        return [e.dst for e in self._succ[node_id]]

    def predecessors(self, node_id: int) -> list[int]:
        """Predecessor node ids of *node_id*."""
        return [e.src for e in self._pred[node_id]]

    def out_edges(self, node_id: int) -> list[Edge]:
        """Outgoing edges of *node_id*."""
        return list(self._succ[node_id])

    def checkpoint_nodes(self) -> list[CFGNode]:
        """All checkpoint nodes."""
        return self.nodes_of_kind(NodeKind.CHECKPOINT)

    def send_nodes(self) -> list[CFGNode]:
        """All send nodes."""
        return self.nodes_of_kind(NodeKind.SEND)

    def recv_nodes(self) -> list[CFGNode]:
        """All receive nodes."""
        return self.nodes_of_kind(NodeKind.RECV)


@dataclass
class MessageEdge:
    """A matched send→recv pair in the extended CFG (paper §3.2)."""

    send_id: int
    recv_id: int
    reason: str = ""


@dataclass
class ExtendedCFG:
    """A CFG plus the message edges produced by Phase II.

    Paths in the extended CFG traverse both control edges and message
    edges; :meth:`find_path` optionally excludes the CFG's backward
    edges so Phase III can distinguish same-iteration paths from paths
    that wrap around a loop (the Figure 6 subtlety).
    """

    cfg: CFG
    message_edges: list[MessageEdge] = field(default_factory=list)

    def add_message_edge(self, send_id: int, recv_id: int, reason: str = "") -> None:
        """Register a matched send→recv pair (idempotent)."""
        send = self.cfg.node(send_id)
        recv = self.cfg.node(recv_id)
        if send.kind is not NodeKind.SEND:
            raise CFGError(f"message edge source must be a send node: {send!r}")
        if recv.kind is not NodeKind.RECV:
            raise CFGError(f"message edge target must be a recv node: {recv!r}")
        if not any(
            m.send_id == send_id and m.recv_id == recv_id for m in self.message_edges
        ):
            self.message_edges.append(MessageEdge(send_id, recv_id, reason))

    def matches_for_recv(self, recv_id: int) -> list[int]:
        """Send node ids matched with the receive node *recv_id*."""
        return [m.send_id for m in self.message_edges if m.recv_id == recv_id]

    def successors(
        self, node_id: int, excluded_edges: frozenset[tuple[int, int]] = frozenset()
    ) -> list[int]:
        """Successors through control *and* message edges.

        *excluded_edges* removes specific control edges (used to ignore
        backward edges); message edges are never excluded.
        """
        result = [
            e.dst
            for e in self.cfg.out_edges(node_id)
            if (e.src, e.dst) not in excluded_edges
        ]
        result.extend(
            m.recv_id for m in self.message_edges if m.send_id == node_id
        )
        return result

    def find_path(
        self,
        src: int,
        dst: int,
        exclude_back_edges: Iterable[tuple[int, int]] = (),
    ) -> list[int] | None:
        """Return a node-id path ``src -> ... -> dst`` in the extended
        CFG, or ``None`` if *dst* is unreachable from *src*.

        The search is an iterative DFS over control plus message edges.
        ``exclude_back_edges`` removes the given control edges from the
        graph before searching.
        """
        excluded = frozenset(exclude_back_edges)
        if src == dst:
            # A non-trivial path from a node to itself requires at least
            # one step; handle by searching from successors.
            for nxt in self.successors(src, excluded):
                sub = self.find_path(nxt, dst, excluded)
                if sub is not None:
                    return [src, *sub]
            return None
        parent: dict[int, int] = {src: src}
        stack = [src]
        while stack:
            current = stack.pop()
            for nxt in self.successors(current, excluded):
                if nxt in parent:
                    continue
                parent[nxt] = current
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                stack.append(nxt)
        return None
