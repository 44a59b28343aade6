"""Condition 1 / Theorem 3.2 verification (paper §3.3).

Condition 1: for every ``i`` and every collection ``S_i`` of checkpoint
nodes, there is no path in the extended CFG between any two (distinct)
members of ``S_i``. Theorem 3.2 states this is necessary and sufficient
for every straight cut ``R_i`` to be a recovery line in every further
execution.

Two modes:

- ``include_back_edge_paths=True`` (paper default): paths may traverse
  the CFG's backward edges. The Figure 6 discussion shows such paths
  are dangerous in general, so the conservative checker forbids them.
- ``include_back_edge_paths=False`` (the paper's loop optimisation):
  backward edges are removed before searching, so only same-iteration
  paths count; cross-iteration orderings are instead guaranteed by the
  message order itself (validated empirically by the simulator tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.dominators import find_back_edges
from repro.cfg.graph import ExtendedCFG
from repro.cfg.paths import CheckpointIndexing, index_checkpoints
from repro.errors import VerificationError
from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class Violation:
    """A Condition 1 violation: a path between two same-index nodes.

    ``index`` is the paper's ``i`` (1-based). ``path`` is the offending
    node-id path from ``src`` to ``dst`` in the extended CFG;
    ``uses_back_edge`` records whether it wraps around a loop.
    """

    index: int
    src: int
    dst: int
    path: tuple[int, ...]
    uses_back_edge: bool

    def describe(self, ext: ExtendedCFG) -> str:
        """Human-readable rendering of the offending path."""
        nodes = " -> ".join(repr(ext.cfg.node(n)) for n in self.path)
        return f"S_{self.index}: {nodes}"


@dataclass
class VerificationResult:
    """Outcome of a Condition 1 check."""

    ok: bool
    indexing: CheckpointIndexing
    violations: tuple[Violation, ...] = ()
    reason: str = ""

    @property
    def balanced(self) -> bool:
        """Whether every path carries the same number of checkpoints."""
        return self.indexing.balanced

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.VerificationError` unless ok."""
        if not self.ok:
            raise VerificationError(self.reason or "Condition 1 violated")


def check_condition1(
    ext: ExtendedCFG,
    include_back_edge_paths: bool = True,
    first_only: bool = False,
) -> VerificationResult:
    """Check Condition 1 on the extended CFG *ext*.

    Returns every violation found (or only the first when *first_only*),
    so Phase III can pick one to repair and callers can report all.

    The decision is made without enumerating paths: the ``S_i``
    collections come from :func:`~repro.cfg.paths.index_checkpoints`
    and pairwise reachability between same-index checkpoints is a
    bitset transitive closure over the extended CFG's SCC condensation
    — exact and polynomial where the old checker was exponential. Path
    *search* survives only to produce the human-readable witness path
    of each violation, so a verdict of ``ok`` never walks a single
    path. Violations are discovered in the same order as the
    enumerating checker (ascending index, then sorted members, source
    before destination), so downstream phases see identical results;
    the old procedure lives on as the test suite's oracle.
    """
    indexing = index_checkpoints(ext.cfg)
    if not indexing.balanced:
        return VerificationResult(
            ok=False,
            indexing=indexing,
            reason=(
                "paths carry different checkpoint counts "
                f"{list(indexing.path_counts)}; straight cuts are undefined"
            ),
        )
    back_edges = {(e.src, e.dst) for e in find_back_edges(ext.cfg)}
    exclude = () if include_back_edge_paths else tuple(back_edges)
    reach = _checkpoint_reachability(ext, frozenset(exclude))
    violations: list[Violation] = []
    for index, column in enumerate(indexing.columns, start=1):
        members = sorted(column)
        for src in members:
            src_reach = reach.get(src, 0)
            for dst in members:
                if src == dst:
                    continue
                if not src_reach >> reach.bit(dst) & 1:
                    continue
                path = ext.find_path(src, dst, exclude_back_edges=exclude)
                assert path is not None, "closure and witness search disagree"
                uses_back = any(
                    (path[k], path[k + 1]) in back_edges
                    for k in range(len(path) - 1)
                )
                violations.append(
                    Violation(
                        index=index,
                        src=src,
                        dst=dst,
                        path=tuple(path),
                        uses_back_edge=uses_back,
                    )
                )
                if first_only:
                    return _result(violations, indexing, ext)
    return _result(violations, indexing, ext)


class _ReachMasks(dict):
    """node id -> bitmask of checkpoint nodes reachable from it.

    ``bit(node_id)`` maps a checkpoint node to its bit position. A set
    bit means reachable via *one or more* edges — except for the node's
    own bit, which is also set when it merely contains itself; callers
    comparing distinct nodes (Condition 1 always does) never read it.
    """

    def __init__(self, bits: dict[int, int]) -> None:
        super().__init__()
        self._bits = bits

    def bit(self, node_id: int) -> int:
        return self._bits[node_id]


def _checkpoint_reachability(
    ext: ExtendedCFG, excluded: frozenset[tuple[int, int]]
) -> _ReachMasks:
    """Per-node bitmasks of reachable checkpoint nodes.

    Runs an iterative Tarjan SCC pass over the extended CFG (control
    edges minus *excluded*, plus message edges — possibly cyclic) and
    accumulates, per component in reverse topological order, the union
    of its own checkpoint bits and those of every reachable component.
    One arbitrary-precision int per node: O(V·E/64) bit work total.
    """
    cfg = ext.cfg
    succ: dict[int, list[int]] = {
        node.node_id: ext.successors(node.node_id, excluded)
        for node in cfg.nodes()
    }
    bits = {
        node.node_id: position
        for position, node in enumerate(cfg.checkpoint_nodes())
    }

    # Iterative Tarjan: components are emitted descendants-first, so a
    # single pass over the emission order closes the reachability sets.
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    scc_stack: list[int] = []
    comp_of: dict[int, int] = {}
    components: list[list[int]] = []
    counter = 0
    for root in succ:
        if root in index_of:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack.add(node)
            advanced = False
            children = succ[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index_of:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: list[int] = []
                while True:
                    member = scc_stack.pop()
                    on_stack.discard(member)
                    comp_of[member] = len(components)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    comp_mask = [0] * len(components)
    for comp_id, component in enumerate(components):
        mask = 0
        for member in component:
            if member in bits:
                mask |= 1 << bits[member]
            for child in succ[member]:
                child_comp = comp_of[child]
                if child_comp != comp_id:
                    mask |= comp_mask[child_comp]
        comp_mask[comp_id] = mask

    reach = _ReachMasks(bits)
    for node_id in succ:
        comp_id = comp_of[node_id]
        if len(components[comp_id]) > 1:
            # Non-trivial SCC: every member reaches every member.
            reach[node_id] = comp_mask[comp_id]
        else:
            mask = 0
            for child in succ[node_id]:
                child_comp = comp_of[child]
                mask |= comp_mask[child_comp]
                if child in bits:
                    mask |= 1 << bits[child]
            reach[node_id] = mask
    return reach


def _result(
    violations: list[Violation],
    indexing: CheckpointIndexing,
    ext: ExtendedCFG,
) -> VerificationResult:
    if not violations:
        return VerificationResult(ok=True, indexing=indexing)
    return VerificationResult(
        ok=False,
        indexing=indexing,
        violations=tuple(violations),
        reason="; ".join(v.describe(ext) for v in violations[:3]),
    )


def verify_program(
    program: ast.Program,
    include_back_edge_paths: bool = True,
) -> VerificationResult:
    """Build the extended CFG of *program* and check Condition 1."""
    from repro.phases.matching import build_extended_cfg

    ext = build_extended_cfg(program)
    return check_condition1(
        ext, include_back_edge_paths=include_back_edge_paths
    )


@dataclass
class OrderingConstraint:
    """The paper's loop optimisation artifact.

    When a violating path between ``earlier`` and ``later`` exists only
    through backward edges, instead of hoisting the checkpoint out of
    the loop the paper requires that, in every execution, the
    checkpoint instance due to ``earlier`` completes before the one due
    to ``later``. The constraint is discharged by message order (no
    coordination); the simulator's trace checker asserts it.
    """

    earlier: int
    later: int
    index: int


def loop_ordering_constraints(
    ext: ExtendedCFG,
) -> tuple[OrderingConstraint, ...]:
    """Derive the ordering constraints of back-edge-only violations."""
    full = check_condition1(ext, include_back_edge_paths=True)
    same_iter = check_condition1(ext, include_back_edge_paths=False)
    if not full.balanced:
        return ()
    same_iter_pairs = {(v.index, v.src, v.dst) for v in same_iter.violations}
    constraints = [
        OrderingConstraint(earlier=v.dst, later=v.src, index=v.index)
        for v in full.violations
        if (v.index, v.src, v.dst) not in same_iter_pairs
    ]
    return tuple(constraints)
