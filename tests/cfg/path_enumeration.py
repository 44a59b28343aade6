"""Explicit once-through path enumeration, kept as a test oracle.

The source tree computes the ``S_i`` collections, the per-path
checkpoint counts and Phase III's surplus checkpoint without listing a
path (``repro.cfg.paths.index_checkpoints`` and
``repro.cfg.paths.surplus_checkpoint``). This module lists them: every
entry→exit path of the once-through DAG, in depth-first order, last
successor first. It is exponential in the number of branches, so
:func:`acyclic_paths` refuses more than ``DEFAULT_PATH_LIMIT`` paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.graph import CFG
from repro.cfg.nodes import NodeKind
from repro.cfg.paths import index_checkpoints, once_through
from repro.errors import CFGError

#: Paths :func:`acyclic_paths` lists before it gives up.
DEFAULT_PATH_LIMIT = 100_000


def reachable_from(cfg: CFG, start: int) -> frozenset[int]:
    """All node ids reachable from *start* (inclusive) via control edges."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in cfg.successors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def find_path(cfg: CFG, src: int, dst: int) -> list[int] | None:
    """A control-edge path from *src* to *dst*, or None."""
    parent = {src: src}
    stack = [src]
    while stack:
        current = stack.pop()
        if current == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for nxt in cfg.successors(current):
            if nxt not in parent:
                parent[nxt] = current
                stack.append(nxt)
    return None


def once_through_successors(cfg: CFG) -> dict[int, list[int]]:
    """Successor map of the once-through DAG."""
    return {
        node_id: [edge.dst for edge in out]
        for node_id, out in once_through(cfg).edges.items()
    }


def acyclic_paths(
    cfg: CFG, limit: int = DEFAULT_PATH_LIMIT
) -> list[tuple[int, ...]]:
    """All entry→exit paths of the once-through DAG, depth-first.

    Raises :class:`~repro.errors.CFGError` if the number of paths
    exceeds *limit*.
    """
    succ = once_through_successors(cfg)
    paths: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(cfg.entry_id, (cfg.entry_id,))]
    while stack:
        current, path = stack.pop()
        if current == cfg.exit_id:
            paths.append(path)
            if len(paths) > limit:
                raise CFGError(f"more than {limit} entry-exit paths")
            continue
        for nxt in succ[current]:
            stack.append((nxt, path + (nxt,)))
    return paths


@dataclass(frozen=True)
class CheckpointEnumeration:
    """Checkpoint nodes along every path.

    Attributes:
        paths: Every acyclic entry→exit path.
        per_path: For each path, the tuple of checkpoint node ids in
            path order (so ``per_path[k][i-1]`` is ``C_i`` on path k).
        columns: ``columns[i]`` is the paper's ``S_{i+1}``: the set of
            node ids appearing as the (i+1)-th checkpoint on some path.
        balanced: True iff every path has the same number of checkpoint
            nodes.
    """

    paths: tuple[tuple[int, ...], ...]
    per_path: tuple[tuple[int, ...], ...]
    columns: tuple[frozenset[int], ...]
    balanced: bool

    @property
    def depth(self) -> int:
        """The fewest checkpoints any path carries."""
        return len(self.columns)

    @property
    def path_counts(self) -> tuple[int, ...]:
        """The distinct per-path checkpoint counts, ascending."""
        return tuple(sorted({len(seq) for seq in self.per_path}))


def enumerate_checkpoints(cfg: CFG) -> CheckpointEnumeration:
    """Enumerate ``C_i^γ`` along every acyclic path (paper §2)."""
    paths = acyclic_paths(cfg)
    per_path = [
        tuple(
            node_id
            for node_id in path
            if cfg.node(node_id).kind is NodeKind.CHECKPOINT
        )
        for path in paths
    ]
    counts = {len(seq) for seq in per_path}
    depth = min(counts) if counts else 0
    columns = tuple(
        frozenset(seq[i] for seq in per_path if len(seq) > i) for i in range(depth)
    )
    return CheckpointEnumeration(
        paths=tuple(paths),
        per_path=tuple(per_path),
        columns=columns,
        balanced=len(counts) <= 1,
    )


def checkpoint_columns(cfg: CFG) -> tuple[frozenset[int], ...]:
    """Shorthand: the ``S_i`` collections of *cfg* (1-indexed as i-1)."""
    return index_checkpoints(cfg).columns
