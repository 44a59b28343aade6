"""Phase III: ensuring recovery lines (paper §3.3, Algorithm 3.2).

The transformation repeatedly checks Condition 1 on the extended CFG
and, for each violating path ``C_i^A ->γ C_i^B``, *moves* ``C_i^B``
back in the program: the checkpoint statement is re-inserted
immediately before the statement of a node that (a) dominates
``C_i^B`` and (b) lies on γ — Step 2's edge ``<a, b>``. Where the paper
picks the entry-most such node, we pick the *latest* dominator on γ and
iterate, which yields minimal motion (re-verification drives further
moves if needed); the fixpoints coincide but ours keeps checkpoints
inside loops whenever a shared in-loop position exists (e.g. it turns
the Figure 2 program into exactly the Figure 1 program instead of
hoisting the checkpoint out of the ``while`` loop).

Moving a checkpoint onto a dominator shared by several paths can leave
other paths with an extra checkpoint; the balancing step hoists such
extras toward the common dominator, where adjacent duplicates merge
into a single statement. Checkpoint statements carry no data
dependencies, so motion never changes program semantics.

Modes mirror :mod:`repro.phases.verification`:

- conservative (``loop_optimization=False``): back-edge paths count as
  violations, matching the paper's Figure 6 discussion;
- optimised (``loop_optimization=True``): back-edge-only paths are
  discharged as :class:`~repro.phases.verification.OrderingConstraint`
  artifacts instead of motion, keeping per-branch placements legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.attributes.contradiction import Universe
from repro.attributes.liveness import LivenessResult, checkpoint_liveness
from repro.cfg.builder import build_cfg
from repro.cfg.dominators import compute_dominators
from repro.cfg.graph import ExtendedCFG
from repro.cfg.nodes import NodeKind
from repro.cfg.paths import surplus_checkpoint
from repro.errors import PlacementError
from repro.lang import ast_nodes as ast
from repro.obs.spans import NULL_TRACKER
from repro.phases.matching import (
    attach_message_edges,
    build_extended_cfg,
    statement_edges,
)
from repro.phases.verification import (
    OrderingConstraint,
    VerificationResult,
    Violation,
    check_condition1,
    loop_ordering_constraints,
)


@dataclass(frozen=True)
class Move:
    """A record of one checkpoint motion, for reporting and tests."""

    description: str
    index: int


@dataclass
class PlacementResult:
    """Outcome of Phase III.

    Attributes:
        program: The transformed program (a deep copy; the input is
            never mutated).
        moves: Every motion performed, in order.
        verification: The final Condition 1 check (always ``ok``).
        extended: The extended CFG of ``program`` that check ran on
            (``None`` on a result rebuilt from the transform cache).
        ordering_constraints: Loop-optimisation artifacts (empty in
            conservative mode).

    The liveness of ``program``'s (final, post-motion) checkpoints is
    computed on first access of :attr:`checkpoint_live` or
    :attr:`checkpoint_dead`, and only then: of the pipeline, only the
    placement report reads it.
    """

    program: ast.Program
    moves: tuple[Move, ...] = ()
    verification: VerificationResult | None = None
    extended: ExtendedCFG | None = None
    ordering_constraints: tuple[OrderingConstraint, ...] = ()

    @cached_property
    def _liveness(self) -> LivenessResult:
        return checkpoint_liveness(self.program)

    @property
    def checkpoint_live(self) -> dict[int, frozenset[str]]:
        """Checkpoint statement ``node_id`` → variables still live at
        that checkpoint — what a liveness-pruned snapshot must retain."""
        return self._liveness.live_out

    @property
    def checkpoint_dead(self) -> dict[int, frozenset[str]]:
        """The complement per checkpoint — provably rewritten-before-read
        on every path, safe to exclude."""
        return self._liveness.dead


@dataclass
class _StmtIndex:
    """Positions of statements and block parentage for one AST snapshot."""

    stmt_pos: dict[int, tuple[ast.Block, int]] = field(default_factory=dict)
    block_parent: dict[int, ast.Stmt | None] = field(default_factory=dict)

    @classmethod
    def build(cls, program: ast.Program) -> "_StmtIndex":
        index = cls()
        index._scan(program.body, None)
        return index

    def _scan(self, block: ast.Block, parent: ast.Stmt | None) -> None:
        self.block_parent[block.node_id] = parent
        for pos, stmt in enumerate(block.statements):
            self.stmt_pos[stmt.node_id] = (block, pos)
            if isinstance(stmt, ast.If):
                self._scan(stmt.then_block, stmt)
                self._scan(stmt.else_block, stmt)
            elif isinstance(stmt, ast.While):
                self._scan(stmt.body, stmt)
            elif isinstance(stmt, ast.For):
                self._scan(stmt.body, stmt)


def ensure_recovery_lines(
    program: ast.Program,
    loop_optimization: bool = False,
    universe: Universe = Universe(),
    max_moves: int | None = None,
    tracker=NULL_TRACKER,
) -> PlacementResult:
    """Run Algorithm 3.2 on a copy of *program* until Condition 1 holds.

    Phase II runs once (inside a ``phase2.matching`` span of
    *tracker*): moving checkpoints changes nothing it reads, so every
    later iteration replays its statement-level message edges onto the
    fresh CFG.

    Raises :class:`~repro.errors.PlacementError` if no legal placement
    is found within the move budget (default ``50 + 20 *`` number of
    checkpoint statements).
    """
    working = ast.clone(program)
    n_checkpoints = ast.count_statements(working, ast.Checkpoint)
    budget = max_moves if max_moves is not None else 50 + 20 * n_checkpoints
    include_back = not loop_optimization
    moves: list[Move] = []
    edges = None

    for _ in range(budget + 1):
        _merge_adjacent_checkpoints(working)
        cfg = build_cfg(working)
        if edges is None:
            with tracker.span("phase2.matching"):
                ext = build_extended_cfg(working, cfg, universe)
            edges = statement_edges(ext)
        else:
            ext = attach_message_edges(cfg, edges)
        result = check_condition1(
            ext, include_back_edge_paths=include_back, first_only=True
        )
        if result.ok:
            constraints = (
                loop_ordering_constraints(ext) if loop_optimization else ()
            )
            return PlacementResult(
                program=working,
                moves=tuple(moves),
                verification=result,
                extended=ext,
                ordering_constraints=constraints,
            )
        if not result.balanced:
            moves.append(
                _rebalance(working, ext, result.indexing.path_counts[0])
            )
            continue
        violation = result.violations[0]
        moves.append(_move_back(working, ext, violation))
    raise PlacementError(
        f"no legal placement found within {budget} moves "
        f"(program {program.name!r})"
    )


# ---------------------------------------------------------------------------
# Mutation helpers
# ---------------------------------------------------------------------------


def _merge_adjacent_checkpoints(program: ast.Program) -> None:
    """Collapse consecutive checkpoint statements in every block."""
    for node in ast.walk(program):
        if not isinstance(node, ast.Block):
            continue
        merged: list[ast.Stmt] = []
        for stmt in node.statements:
            if (
                isinstance(stmt, ast.Checkpoint)
                and merged
                and isinstance(merged[-1], ast.Checkpoint)
            ):
                continue
            merged.append(stmt)
        node.statements[:] = merged


def _checkpoint_stmt(ext: ExtendedCFG, node_id: int) -> ast.Checkpoint:
    stmt = ext.cfg.node(node_id).stmt
    if not isinstance(stmt, ast.Checkpoint):
        raise PlacementError(f"node {node_id} is not a checkpoint node")
    return stmt


def _remove_stmt(index: _StmtIndex, stmt: ast.Stmt) -> None:
    block, pos = index.stmt_pos[stmt.node_id]
    del block.statements[pos]


def _insert_before(index: _StmtIndex, anchor: ast.Stmt, stmt: ast.Stmt) -> None:
    block, pos = index.stmt_pos[anchor.node_id]
    block.statements.insert(pos, stmt)


def _hoist_one_level(
    program: ast.Program, stmt: ast.Stmt, reason: str, index_i: int
) -> Move:
    """Move *stmt* out of its block, to just before the parent construct."""
    index = _StmtIndex.build(program)
    block, _ = index.stmt_pos[stmt.node_id]
    parent = index.block_parent[block.node_id]
    if parent is None:
        raise PlacementError(
            f"cannot hoist checkpoint above the program body ({reason})"
        )
    _remove_stmt(index, stmt)
    index = _StmtIndex.build(program)
    _insert_before(index, parent, stmt)
    return Move(
        description=f"hoist checkpoint before line-{parent.line} construct ({reason})",
        index=index_i,
    )


def _rebalance(program: ast.Program, ext: ExtendedCFG, minimum: int) -> Move:
    """Hoist one surplus checkpoint toward its branch's common dominator.

    *minimum* is the fewest checkpoints any path carries. A pick in the
    program body cannot rise; a checkpoint of the branch arm that
    carries the surplus rises instead.
    """
    stmt = _checkpoint_stmt(ext, surplus_checkpoint(ext.cfg, minimum))
    if any(top is stmt for top in program.body.statements):
        stmt = _surplus_arm_checkpoint(program.body) or stmt
    return _hoist_one_level(
        program, stmt, reason="rebalance", index_i=minimum + 1
    )


def _most_checkpoints(block: ast.Block) -> int:
    """The most checkpoints a once-through path through *block* passes
    (each loop body is traversed exactly once)."""
    most = 0
    for stmt in block.statements:
        if isinstance(stmt, ast.Checkpoint):
            most += 1
        elif isinstance(stmt, ast.If):
            most += max(
                _most_checkpoints(stmt.then_block),
                _most_checkpoints(stmt.else_block),
            )
        elif isinstance(stmt, (ast.While, ast.For)):
            most += _most_checkpoints(stmt.body)
    return most


def _surplus_arm_checkpoint(block: ast.Block) -> ast.Checkpoint | None:
    """The first checkpoint of the arm that carries more checkpoints, of
    the first branch in *block* (document order) whose arms differ."""
    for node in ast.walk(block):
        if not isinstance(node, ast.If):
            continue
        then_most = _most_checkpoints(node.then_block)
        else_most = _most_checkpoints(node.else_block)
        if then_most != else_most:
            arm = node.then_block if then_most > else_most else node.else_block
            return next(
                stmt for stmt in ast.walk(arm)
                if isinstance(stmt, ast.Checkpoint)
            )
    return None


def _move_back(
    program: ast.Program, ext: ExtendedCFG, violation: Violation
) -> Move:
    """Step 2 of Algorithm 3.2: move ``C_i^B`` before a dominator on γ."""
    target_stmt = _checkpoint_stmt(ext, violation.dst)
    dominators = compute_dominators(ext.cfg)[violation.dst]
    # Dominators of C_i^B that lie on γ, ordered entry-most first; we
    # try the latest (closest to C_i^B) first for minimal motion.
    candidates = [
        node_id
        for node_id in violation.path
        if node_id != violation.dst and node_id in dominators
    ]
    index = _StmtIndex.build(program)
    for anchor_id in reversed(candidates):
        anchor_node = ext.cfg.node(anchor_id)
        anchor_stmt = anchor_node.stmt
        if anchor_stmt is None or anchor_stmt.node_id not in index.stmt_pos:
            continue
        if anchor_node.kind is NodeKind.CHECKPOINT:
            continue
        target_block, target_pos = index.stmt_pos[target_stmt.node_id]
        anchor_block, anchor_pos = index.stmt_pos[anchor_stmt.node_id]
        if (
            anchor_block.node_id == target_block.node_id
            and anchor_pos == target_pos + 1
        ):
            # Already immediately before the anchor: no progress here.
            continue
        _remove_stmt(index, target_stmt)
        index = _StmtIndex.build(program)
        _insert_before(index, anchor_stmt, target_stmt)
        return Move(
            description=(
                f"move checkpoint C_{violation.index} before "
                f"line-{anchor_stmt.line} statement"
            ),
            index=violation.index,
        )
    # No dominator on the path gives progress: hoist out one level
    # (this is where the paper's "moved out of loops" drawback bites).
    return _hoist_one_level(
        program,
        target_stmt,
        reason=f"no in-path dominator for S_{violation.index}",
        index_i=violation.index,
    )
