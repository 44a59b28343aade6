"""The reference MiniMP interpreter: a tree walk over the AST.

The engine runs the compiled backend (:mod:`repro.lang.compile`); this
interpreter is its differential oracle, selected by
``RunConfig.backend="reference"`` (``--backend reference``).
``tests/runtime/test_backend_differential.py`` checks that both produce
the same effect streams and bit-identical
:class:`~repro.runtime.effects.ProcessSnapshot`\\ s. It follows the
driving protocol of :mod:`repro.runtime.effects`.

Python generators cannot be copied, so the interpreter keeps its
control state as an explicit stack of small frames (block position,
loop bookkeeping); :meth:`ProcessInterpreter.snapshot` captures it
(plus the variable environment) in O(stack) without copying the shared
AST, and :meth:`ProcessInterpreter.restore` rewinds to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.lang import ast_nodes as ast
from repro.lang.builtins import call_builtin
from repro.runtime.effects import (
    BcastRecvEffect,
    BcastSendEffect,
    CheckpointEffect,
    ComputeEffect,
    Effect,
    FrameState,
    LocalEffect,
    ProcessSnapshot,
    RecvEffect,
    SendEffect,
)
from repro.runtime.inputs import InputProvider


@dataclass
class _Frame:
    """One live control-stack entry of the reference interpreter.

    ``kind`` is ``"block"`` (executing ``block`` at ``index``),
    ``"while"`` (re-evaluating ``stmt``'s condition each pass), or
    ``"for"`` (``remaining`` iterations left of ``stmt``).
    """

    kind: str
    block: ast.Block | None = None
    index: int = 0
    stmt: ast.Stmt | None = None
    remaining: int = 0
    trip: int = 0


class ProcessInterpreter:
    """Executes one MiniMP process (a given rank) statement by statement."""

    def __init__(
        self,
        program: ast.Program,
        rank: int,
        nprocs: int,
        params: dict[str, int] | None = None,
        inputs: InputProvider | None = None,
    ) -> None:
        if not 0 <= rank < nprocs:
            raise SimulationError(f"rank {rank} out of range for {nprocs} processes")
        self.program = program
        self.rank = rank
        self.nprocs = nprocs
        self.inputs = inputs if inputs is not None else InputProvider()
        self.env: dict[str, int] = dict(params or {})
        self.checkpoint_count = 0
        self._stack: list[_Frame] = [_Frame(kind="block", block=program.body)]
        self._pending_recv: str | None = None
        # Checkpoint statement node_id -> provably-dead variable names
        # (set via configure_pruning; empty = prune nothing).
        self._dead_sets: dict[int, frozenset[str]] = {}

    # -- state queries --------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the program has run to completion."""
        return not self._stack

    # -- snapshot / restore -----------------------------------------------------

    def snapshot(self) -> ProcessSnapshot:
        """Capture current state (legal even while blocked at a recv)."""
        return ProcessSnapshot(
            env=dict(self.env),
            frames=tuple(
                FrameState(
                    f.kind, f.block, f.index, f.stmt, f.remaining, f.trip
                )
                for f in self._stack
            ),
            checkpoint_count=self.checkpoint_count,
            input_counters=self.inputs.snapshot(self.rank),
            pending_recv=self._pending_recv,
        )

    def configure_pruning(
        self, dead_sets: dict[int, frozenset[str]]
    ) -> None:
        """Install per-checkpoint dead-variable sets for pruned capture.

        *dead_sets* maps checkpoint statement ``node_id`` to the
        variables :mod:`repro.attributes.liveness` proved dead there.
        Only affects :meth:`snapshot_pruned`; plain :meth:`snapshot`
        always captures everything.
        """
        self._dead_sets = {
            stmt_id: dead for stmt_id, dead in dead_sets.items() if dead
        }

    def snapshot_pruned(self, stmt_id: int | None) -> ProcessSnapshot:
        """Snapshot with dead slots zeroed for the checkpoint *stmt_id*.

        Every variable keeps its entry (and insertion position — the
        restore contract needs the exact dict order), but slots proved
        dead at this checkpoint store a deterministic 0 instead of
        their value: restoring can only differ from a full snapshot in
        slots that are provably rewritten before any read.
        """
        snap = self.snapshot()
        dead = self._dead_sets.get(stmt_id)
        if dead:
            # Direct __dict__ write: the dataclass is frozen, and the
            # surrounding fields (frames, counters) stay shared.
            snap.__dict__["env"] = {
                name: (0 if name in dead else value)
                for name, value in snap.env.items()
            }
        return snap

    def restore(self, snap: ProcessSnapshot) -> None:
        """Rewind to *snap* (rollback or restart after a failure)."""
        self.env = dict(snap.env)
        self._stack = [
            _Frame(f.kind, f.block, f.index, f.stmt, f.remaining, f.trip)
            for f in snap.frames
        ]
        self.checkpoint_count = snap.checkpoint_count
        self._pending_recv = snap.pending_recv
        self.inputs.restore(self.rank, dict(snap.input_counters))

    # -- execution ----------------------------------------------------------------

    def step(self) -> Effect | None:
        """Advance to the next effect; ``None`` when the program is done.

        Raises if called while a receive is awaiting its delivery.
        """
        if self._pending_recv is not None:
            raise SimulationError("step() called while awaiting a delivery")
        while self._stack:
            frame = self._stack[-1]
            if frame.kind == "block":
                assert frame.block is not None
                if frame.index >= len(frame.block.statements):
                    self._stack.pop()
                    continue
                stmt = frame.block.statements[frame.index]
                frame.index += 1
                effect = self._execute(stmt)
                if effect is not None:
                    return effect
                continue
            if frame.kind == "while":
                assert isinstance(frame.stmt, ast.While)
                if self._truthy(frame.stmt.cond):
                    frame.trip += 1
                    self._stack.append(
                        _Frame(kind="block", block=frame.stmt.body)
                    )
                else:
                    self._stack.pop()
                continue
            if frame.kind == "for":
                assert isinstance(frame.stmt, ast.For)
                if frame.remaining > 0:
                    self.env[frame.stmt.var] = frame.trip
                    frame.remaining -= 1
                    frame.trip += 1
                    self._stack.append(
                        _Frame(kind="block", block=frame.stmt.body)
                    )
                else:
                    self._stack.pop()
                continue
            raise SimulationError(f"corrupt frame kind {frame.kind!r}")
        return None

    def deliver(self, value: int) -> None:
        """Complete a pending receive with *value*."""
        if self._pending_recv is None:
            raise SimulationError("deliver() without a pending receive")
        self.env[self._pending_recv] = value
        self._pending_recv = None

    # -- statement dispatch ----------------------------------------------------

    def _execute(self, stmt: ast.Stmt) -> Effect | None:
        if isinstance(stmt, ast.Assign):
            self.env[stmt.target] = self._eval(stmt.value)
            return LocalEffect(description=stmt.target)
        if isinstance(stmt, ast.Pass):
            return LocalEffect(description="pass")
        if isinstance(stmt, ast.Compute):
            return ComputeEffect(cost=float(self._eval(stmt.cost)))
        if isinstance(stmt, ast.Send):
            dest = self._eval(stmt.dest)
            self._check_rank(dest, stmt)
            return SendEffect(dest=dest, value=self._eval(stmt.value), stmt=stmt)
        if isinstance(stmt, ast.Recv):
            source = self._eval(stmt.source)
            self._check_rank(source, stmt)
            self._pending_recv = stmt.target
            return RecvEffect(source=source, target=stmt.target, stmt=stmt)
        if isinstance(stmt, ast.Bcast):
            root = self._eval(stmt.root)
            self._check_rank(root, stmt)
            if root == self.rank:
                value = self._eval(stmt.value)
                self.env[stmt.target] = value
                return BcastSendEffect(value=value, stmt=stmt)
            self._pending_recv = stmt.target
            return BcastRecvEffect(root=root, target=stmt.target, stmt=stmt)
        if isinstance(stmt, ast.Checkpoint):
            self.checkpoint_count += 1
            return CheckpointEffect(stmt=stmt)
        if isinstance(stmt, ast.If):
            block = stmt.then_block if self._truthy(stmt.cond) else stmt.else_block
            self._stack.append(_Frame(kind="block", block=block))
            return None
        if isinstance(stmt, ast.While):
            self._stack.append(_Frame(kind="while", stmt=stmt))
            return None
        if isinstance(stmt, ast.For):
            count = max(0, self._eval(stmt.count))
            self._stack.append(_Frame(kind="for", stmt=stmt, remaining=count))
            return None
        raise SimulationError(f"unknown statement {stmt!r}")

    def _check_rank(self, rank: int, stmt: ast.Stmt) -> None:
        if not 0 <= rank < self.nprocs:
            raise SimulationError(
                f"P{self.rank}: endpoint rank {rank} out of range "
                f"[0, {self.nprocs}) at line {stmt.line}"
            )

    def _truthy(self, expr: ast.Expr) -> bool:
        return self._eval(expr) != 0

    # -- expression evaluation ----------------------------------------------------

    def _eval(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.Const):
            return expr.value
        if isinstance(expr, ast.MyRank):
            return self.rank
        if isinstance(expr, ast.NProcs):
            return self.nprocs
        if isinstance(expr, ast.InputData):
            return self.inputs.value(expr.label, self.rank)
        if isinstance(expr, ast.Name):
            try:
                return self.env[expr.ident]
            except KeyError:
                raise SimulationError(
                    f"P{self.rank}: unbound variable {expr.ident!r} "
                    f"at line {expr.line}"
                ) from None
        if isinstance(expr, ast.Call):
            args = [self._eval(a) for a in expr.args]
            return call_builtin(expr.func, args)
        if isinstance(expr, ast.UnaryOp):
            value = self._eval(expr.operand)
            return -value if expr.op == "-" else int(not value)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr)
        raise SimulationError(f"unknown expression {expr!r}")

    def _eval_binop(self, expr: ast.BinOp) -> int:
        op = expr.op
        if op == "and":
            return self._eval(expr.right) if self._truthy(expr.left) else 0
        if op == "or":
            left = self._eval(expr.left)
            return left if left != 0 else self._eval(expr.right)
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op in ("/", "//"):
            if right == 0:
                raise SimulationError(
                    f"P{self.rank}: division by zero at line {expr.line}"
                )
            return left // right
        if op == "%":
            if right == 0:
                raise SimulationError(
                    f"P{self.rank}: modulo by zero at line {expr.line}"
                )
            return left % right
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        raise SimulationError(f"unknown operator {op!r}")
