"""Compile MiniMP ASTs to one shared closure program per ``(program, n)``.

The reference :class:`~repro.runtime.interpreter.ProcessInterpreter`
walks AST nodes on every step: each statement pays an ``isinstance``
dispatch chain, each expression node a recursive ``_eval`` call, and
each snapshot a frame-by-frame copy of the control stack. This module
lowers a validated program once into a flat *register program* — a list
of Python closures indexed by a program counter — that every rank
executes. The system model is SPMD (one text, ``n`` processes that
differ only through ``myrank``), so the table is built once per
``(program, n)`` and each closure takes the process as its argument
(``code[pc](proc)``); binding a rank allocates its state and nothing
else:

- **Slotted frames.** Variables live in a flat register list indexed by
  a per-program symbol table instead of a dict environment. A separate
  first-binding order list reproduces the reference interpreter's dict
  insertion order exactly, so ``env`` (and every JSON artifact derived
  from it) is byte-identical.
- **Operand kinds.** Every expression lowers to a *constant*, a
  *rank-pure* value (built only from ``myrank``, ``nprocs``, constants
  and pure builtins: one rank-indexed vector on the program), a
  *register* (a variable's slot) or a *dynamic* closure. Neighbour
  endpoints and ``myrank % 2 == 0`` branch targets are vector lookups,
  and effects that depend on nothing but the rank are allocated at most
  once per rank and reused; rank-independent effects are shared by all
  ranks.
- **Instruction selection.** A *leaf operand* is a variable's register
  slot or a rank-indexed vector holding a constant or a rank-pure fold.
  The statements that dominate the shipped programs lower to one fused
  closure that reads its leaves inline, left to right, and raises the
  reference's unbound-variable error at the first unbound one:

  - ``x = init|combine|relax(leaves)``: ``mix_assign``, which goes on
    from the kernel's ``MIX_STATES`` entry with one mixing round per
    leaf;
  - ``x = a op b`` for ``+ - *`` and the comparisons: ``op_assign``;
  - ``if``/``while`` on ``a op b``: ``test``, the branch or loop head;
  - ``send(dest, x)`` with a constant or rank-pure ``dest``: ``send``,
    which builds its ``SendEffect`` without the frozen ``__init__``.

  Anything else — division and modulo, ``input()``, nested calls, a
  shape used as an operand — keeps the general closure tree.
- **Flattened control flow.** ``if``/``while``/``for`` become jump
  targets; loop bookkeeping is a small stack of counters, not frames.
- **Snapshot templates.** Every effectful instruction carries the exact
  control-stack shape the reference interpreter would have at that
  point (including its lazily-unpopped exhausted frames), so
  :meth:`CompiledProcess.snapshot` rebuilds a bit-identical
  :class:`~repro.runtime.effects.ProcessSnapshot` in O(depth), and
  :meth:`CompiledProcess.restore` maps any snapshot back to a program
  counter through a precomputed static-key table.

The compiled backend is behaviourally indistinguishable from the
reference interpreter — same effects (including shared ``stmt`` AST
references), same error messages at the same execution points, same
evaluation order (``input()`` streams included), same snapshots — which
is enforced by ``tests/runtime/test_backend_differential.py``.

Lowering-time errors never replace run-time errors: folding is
attempted opportunistically, and an operand whose fold fails for *any*
rank (division by zero, unknown builtin) is demoted to a dynamic
closure that raises the reference interpreter's exact error when — and
only when — that rank actually executes the statement. Endpoint ranges
are checked at the same point for the same reason.
"""

from __future__ import annotations

import operator
from itertools import repeat

from repro.errors import SimulationError
from repro.lang import ast_nodes as ast
from repro.lang.builtins import (
    BUILTINS, MIX_MASK, MIX_MULTIPLIER, MIX_STATES, call_builtin,
)
from repro.runtime.effects import (
    BcastRecvEffect,
    BcastSendEffect,
    CheckpointEffect,
    ComputeEffect,
    FrameState,
    LocalEffect,
    ProcessSnapshot,
    RecvEffect,
    SendEffect,
)
from repro.runtime.inputs import InputProvider

#: Version of the lowering scheme. Bump on any change that could alter
#: compiled-program behaviour; cache keys (``campaign/cache.py``)
#: incorporate it so stale transforms can't be served across compiler
#: changes. 2: per-checkpoint register masks for pruned snapshots.
#: 3: one instruction table per (program, n), rank-pure operand vectors.
#: 4: instruction selection, one fused closure per hot statement.
COMPILER_VERSION = 4

#: Register value marking a never-bound variable slot.
_UNBOUND = object()

#: ``_staged`` sentinel: nothing staged by :meth:`CompiledProcess.step_local`.
#: (``None`` itself is a legal staged value — it means "program finished".)
_NO_STAGE = object()

_EMPTY_TMPL: tuple = ()

# What a lowered expression is: (_CONST, value), (_RANK, vector indexed
# by rank), (_REG, leaf) for a variable, (_DYN, closure taking the
# process), or a shape the statement lowering selects a fused closure
# for: (_MIX, (kernel name, parts)) and (_OP, (operator, parts)), whose
# parts are all leaf operands, at least one of them a register.
_CONST, _RANK, _REG, _DYN = "const", "rank", "reg", "dyn"
_MIX, _OP = "mix", "op"
_STATIC_KINDS = frozenset((_CONST, _RANK))
_LEAF_KINDS = _STATIC_KINDS | {_REG}

#: Operators a fused closure applies directly; a comparison's ``bool``
#: is stored as ``int``, like :data:`_BINOPS` does.
_FUSED_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

#: Builds an effect without its frozen dataclass ``__init__``.
_new = object.__new__

#: The pure function behind every binary operator (division by zero
#: raises ``ZeroDivisionError``: a failed fold, never a wrong value).
_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.floordiv,
    "//": operator.floordiv,
    "%": operator.mod,
    "==": lambda left, right: int(left == right),
    "!=": lambda left, right: int(left != right),
    "<": lambda left, right: int(left < right),
    "<=": lambda left, right: int(left <= right),
    ">": lambda left, right: int(left > right),
    ">=": lambda left, right: int(left >= right),
    "and": lambda left, right: right if left != 0 else 0,
    "or": lambda left, right: left if left != 0 else right,
}


def _tmpl_key(tmpl: tuple) -> tuple:
    """Static restore key of a snapshot template (node ids + indexes)."""
    parts = []
    for entry in tmpl:
        kind = entry[0]
        if kind == "block":
            parts.append(("b", entry[1].node_id, entry[2]))
        elif kind == "while":
            parts.append(("w", entry[1].node_id))
        else:
            parts.append(("f", entry[1].node_id))
    return tuple(parts)


def _frames_key(frames: tuple) -> tuple:
    """Static restore key of a snapshot's frame tuple."""
    parts = []
    for frame in frames:
        kind = frame.kind
        if kind == "block":
            parts.append(("b", frame.block.node_id, frame.index))
        elif kind == "while":
            parts.append(("w", frame.stmt.node_id))
        elif kind == "for":
            parts.append(("f", frame.stmt.node_id))
        else:
            raise SimulationError(f"corrupt frame kind {kind!r}")
    return tuple(parts)


def _raiser(message: str):
    """A closure (of any arity) that raises *message* when executed."""

    def raise_error(*_args):
        raise SimulationError(message)

    return raise_error


def _unbound(proc, ident: str, line: int) -> SimulationError:
    return SimulationError(
        f"P{proc.rank}: unbound variable {ident!r} at line {line}"
    )


def _out_of_range(proc, rank: int, nprocs: int, line: int):
    return SimulationError(
        f"P{proc.rank}: endpoint rank {rank} out of range "
        f"[0, {nprocs}) at line {line}"
    )


def _thunk(kind: str, payload):
    """A lowered expression as a callable taking the process."""
    if kind is _DYN:
        return payload
    if kind is _RANK:
        return lambda proc: payload[proc.rank]
    if kind is _CONST:
        return lambda proc: payload
    if kind is _REG:
        slot, _, ident, line = payload

        def read_name(proc):
            value = proc._regs[slot]
            if value is _UNBOUND:
                raise _unbound(proc, ident, line)
            return value

        return read_name
    # A selectable shape used as an operand: the general closure tree.
    name, parts = payload
    thunks = [_thunk(*part) for part in parts]
    if kind is _MIX:
        return _call_closure(name, thunks)
    pure, (left, right) = _BINOPS[name], thunks
    return lambda proc: pure(left(proc), right(proc))


def _call_closure(name: str, thunks: list):
    """The closure calling builtin *name* on evaluated *thunks*."""
    func = BUILTINS.get(name)
    if func is None:
        # Unknown builtin: args still evaluate first (input() side
        # effects), then call_builtin raises the reference error.
        return lambda proc: call_builtin(
            name, [thunk(proc) for thunk in thunks]
        )
    if len(thunks) == 1:
        arg0 = thunks[0]
        return lambda proc: int(func(arg0(proc)))
    if len(thunks) == 2:
        arg0, arg1 = thunks
        return lambda proc: int(func(arg0(proc), arg1(proc)))
    return lambda proc: int(func(*[thunk(proc) for thunk in thunks]))


def _fold(pure, parts: list):
    """Fold *pure* over lowered operands, if that is provably safe.

    A constant when every operand is one, a rank-indexed vector when
    the rest are rank-pure, ``None`` when an operand is dynamic or the
    fold raises for any rank — the expression then evaluates (and
    fails) at run time, exactly where the reference interpreter would.
    """
    kinds = {kind for kind, _ in parts}
    if not kinds <= _STATIC_KINDS:
        return None
    try:
        if _RANK not in kinds:
            return _CONST, pure(*[payload for _, payload in parts])
        return _RANK, list(map(pure, *[
            payload if kind is _RANK else repeat(payload)
            for kind, payload in parts
        ]))
    except Exception:  # a builtin may raise anything (arity, min())
        return None


class CompiledProgram:
    """The lowering of one program for ``n`` processes.

    Holds the executable instruction table ``code`` (shared by every
    rank), the symbol table, the per-effect snapshot templates, and the
    restore table. :meth:`bind` allocates one rank's state over it.
    """

    def __init__(self, program: ast.Program, n_processes: int) -> None:
        if n_processes < 1:
            raise SimulationError(
                f"need at least one process, got {n_processes}"
            )
        self.program = program
        self.nprocs = n_processes
        self.symtab: dict[str, int] = {}
        self.names: list[str] = []
        # Descriptors: mutable lists so jump targets can be patched.
        #   ["eff", stmt, tmpl, cont]
        #   ["branch", cond, then_pc, else_pc]
        #   ["jump", target]
        #   ["wenter", next_pc] / ["whead", stmt, body_pc, exit_pc]
        #   ["fenter", stmt, next_pc] / ["fhead", stmt, body_pc, exit_pc]
        self._descs: list[list] = []
        # Static frame key -> (resume pc, template).
        self._restore: dict[tuple, tuple[int, tuple]] = {}
        self.init_tmpl = (("block", program.body, 0),)
        # The value of ``myrank``, as a rank-pure vector.
        self._ranks = list(range(n_processes))

        for node in ast.walk(program):
            node_type = type(node)
            if node_type is ast.Name:
                self.ensure_slot(node.ident)
            elif node_type in (ast.Assign, ast.Recv, ast.Bcast):
                self.ensure_slot(node.target)
            elif node_type is ast.For:
                self.ensure_slot(node.var)

        self._lower_block(program.body, ())
        self._resolve()
        self.entry_pc = self._thread(0)
        self._restore[_tmpl_key(self.init_tmpl)] = (
            self.entry_pc, self.init_tmpl
        )
        self._restore[()] = (-1, _EMPTY_TMPL)
        # code[pc](proc) returns the next pc (an int: control flow) or
        # the (resume pc, effect, snapshot template) of one statement.
        self.code = [self._instruction(desc) for desc in self._descs]
        # Checkpoint statement node_id -> register slots provably dead
        # there (installed by configure_pruning; empty = prune nothing).
        self.checkpoint_dead_slots: dict[int, frozenset[int]] = {}

    # -- pruned snapshots -------------------------------------------------------

    def configure_pruning(
        self, dead_sets: dict[int, frozenset[str]]
    ) -> None:
        """Translate per-checkpoint dead-*name* sets into register masks.

        *dead_sets* maps checkpoint statement ``node_id`` to the names
        :mod:`repro.attributes.liveness` proved dead there; the mask
        holds their register slots so :meth:`CompiledProcess.\
snapshot_pruned` zeroes by slot without per-capture name lookups.
        Names outside the symbol table are ignored (they can only come
        from a mismatched program, and an unknown name has no slot to
        prune). Shared by every bound rank, like the lowering itself.
        """
        masks: dict[int, frozenset[int]] = {}
        symtab = self.symtab
        for stmt_id, dead in dead_sets.items():
            slots = frozenset(
                symtab[name] for name in dead if name in symtab
            )
            if slots:
                masks[stmt_id] = slots
        self.checkpoint_dead_slots = masks

    # -- symbol table ----------------------------------------------------------

    def ensure_slot(self, name: str) -> int:
        """The register slot of *name* (allocated on first use)."""
        slot = self.symtab.get(name)
        if slot is None:
            slot = len(self.names)
            self.symtab[name] = slot
            self.names.append(name)
        return slot

    # -- diagnostics -----------------------------------------------------------

    @property
    def lowering_stats(self) -> dict[str, int]:
        """Deterministic size counters for the ``compile.lower`` span."""
        return {
            "instructions": len(self._descs),
            "slots": len(self.names),
            "restore_keys": len(self._restore),
        }

    # -- control-flow lowering ---------------------------------------------------

    def _emit(self, desc: list) -> int:
        self._descs.append(desc)
        return len(self._descs) - 1

    def _lower_block(self, block: ast.Block, ctx: tuple) -> None:
        for position, stmt in enumerate(block.statements):
            entry = ("block", block, position + 1)
            stmt_type = type(stmt)
            if stmt_type is ast.If:
                branch = self._emit(["branch", stmt.cond, None, None])
                self._descs[branch][2] = len(self._descs)
                self._lower_block(stmt.then_block, ctx + (entry,))
                jump = self._emit(["jump", None])
                self._descs[branch][3] = len(self._descs)
                self._lower_block(stmt.else_block, ctx + (entry,))
                self._descs[jump][1] = len(self._descs)
            elif stmt_type is ast.While:
                self._emit(["wenter", None])
                head = self._emit(["whead", stmt, None, None])
                self._descs[head][2] = len(self._descs)
                self._lower_block(
                    stmt.body, ctx + (entry, ("while", stmt))
                )
                self._emit(["jump", head])
                self._descs[head][3] = len(self._descs)
            elif stmt_type is ast.For:
                self._emit(["fenter", stmt, None])
                head = self._emit(["fhead", stmt, None, None])
                self._descs[head][2] = len(self._descs)
                self._lower_block(
                    stmt.body, ctx + (entry, ("for", stmt))
                )
                self._emit(["jump", head])
                self._descs[head][3] = len(self._descs)
            else:
                # Effectful (or unknown) statement: one instruction, one
                # snapshot template describing the reference stack —
                # enclosing frames plus this block at position+1.
                tmpl = ctx + (entry,)
                self._emit(["eff", stmt, tmpl, None])

    def _thread(self, pc: int) -> int:
        """Resolve *pc* through jump chains to a real instruction."""
        descs = self._descs
        total = len(descs)
        hops = 0
        while 0 <= pc < total:
            desc = descs[pc]
            if desc[0] != "jump":
                return pc
            pc = desc[1]
            hops += 1
            if hops > total:
                raise SimulationError("jump cycle in lowered program")
        return -1

    def _resolve(self) -> None:
        """Thread every control target and register the restore table."""
        for pc, desc in enumerate(self._descs):
            kind = desc[0]
            if kind == "eff":
                cont = self._thread(pc + 1)
                desc[3] = cont
                key = _tmpl_key(desc[2])
                existing = self._restore.get(key)
                if existing is not None and existing[0] != cont:
                    raise SimulationError(
                        "ambiguous control snapshot: two statements share "
                        f"frame coordinates {key!r} (duplicated node ids?)"
                    )
                self._restore[key] = (cont, desc[2])
            elif kind == "branch":
                desc[2] = self._thread(desc[2])
                desc[3] = self._thread(desc[3])
            elif kind in ("whead", "fhead"):
                desc[2] = self._thread(desc[2])
                desc[3] = self._thread(desc[3])
            elif kind == "wenter":
                desc[1] = self._thread(pc + 1)
            elif kind == "fenter":
                desc[2] = self._thread(pc + 1)

    # -- expression lowering ------------------------------------------------------
    #
    # _lower_expr returns (kind, payload). Folding is opportunistic:
    # anything that cannot be proven to evaluate without error on every
    # rank (or that has input() side effects) stays a closure, so
    # run-time errors fire exactly where the reference interpreter's
    # would.

    def _lower_expr(self, expr):
        expr_type = type(expr)
        if expr_type is ast.Const:
            return _CONST, expr.value
        if expr_type is ast.MyRank:
            return _RANK, self._ranks
        if expr_type is ast.NProcs:
            return _CONST, self.nprocs
        if expr_type is ast.Name:
            return _REG, (self.symtab[expr.ident], None, expr.ident, expr.line)
        if expr_type is ast.InputData:
            label = expr.label
            return _DYN, lambda proc: proc.inputs.value(label, proc.rank)
        if expr_type is ast.UnaryOp:
            # The reference interpreter treats every non-"-" unary op as
            # logical not; mirror that exactly.
            pure = operator.neg if expr.op == "-" \
                else lambda value: int(not value)
            part = self._lower_expr(expr.operand)
            folded = _fold(pure, [part])
            if folded is not None:
                return folded
            operand = _thunk(*part)
            return _DYN, lambda proc: pure(operand(proc))
        if expr_type is ast.Call:
            return self._lower_call(expr)
        if expr_type is ast.BinOp:
            return self._lower_binop(expr)
        # Unknown expression node: the reference raises only when the
        # expression is actually evaluated.
        return _DYN, _raiser(f"unknown expression {expr!r}")

    def _lower_call(self, expr: ast.Call):
        name = expr.func
        parts = [self._lower_expr(arg) for arg in expr.args]
        func = BUILTINS.get(name)
        if func is not None:
            folded = _fold(lambda *args: int(func(*args)), parts)
            if folded is not None:
                return folded
        if name in MIX_STATES and all(
            kind in _LEAF_KINDS for kind, _ in parts
        ):
            return _MIX, (name, parts)
        return _DYN, _call_closure(name, [_thunk(*part) for part in parts])

    def _lower_binop(self, expr: ast.BinOp):
        op = expr.op
        left = self._lower_expr(expr.left)
        if left[0] is _CONST and op in ("and", "or"):
            # Constant left: the expression either IS the right side or
            # never evaluates it.
            if op == "and":
                return self._lower_expr(expr.right) if left[1] != 0 \
                    else (_CONST, 0)
            return left if left[1] != 0 else self._lower_expr(expr.right)
        right = self._lower_expr(expr.right)
        # An unknown operator raises like the reference: after both
        # operands were evaluated.
        pure = _BINOPS.get(op) or _raiser(f"unknown operator {op!r}")
        folded = _fold(pure, [left, right])
        if folded is not None:
            return folded
        if op in _FUSED_OPS and left[0] in _LEAF_KINDS \
                and right[0] in _LEAF_KINDS:
            return _OP, (op, [left, right])
        left_fn, right_fn = _thunk(*left), _thunk(*right)
        if op == "and":
            return _DYN, lambda proc: \
                right_fn(proc) if left_fn(proc) != 0 else 0
        if op == "or":

            def lazy_or(proc):
                value = left_fn(proc)
                return value if value != 0 else right_fn(proc)

            return _DYN, lazy_or
        if op in ("/", "//", "%"):
            what = "modulo" if op == "%" else "division"
            line = expr.line

            def checked(proc):
                dividend, divisor = left_fn(proc), right_fn(proc)
                if divisor == 0:
                    raise SimulationError(
                        f"P{proc.rank}: {what} by zero at line {line}"
                    )
                return pure(dividend, divisor)

            return _DYN, checked
        return _DYN, lambda proc: pure(left_fn(proc), right_fn(proc))

    def _leaf(self, part) -> tuple:
        """``(slot, vector, ident, line)``: where a fused closure reads
        a leaf operand — ``regs[slot]`` when *vector* is ``None``, else
        ``vector[rank]``.
        """
        kind, payload = part
        if kind is _REG:
            return payload
        if kind is _CONST:
            payload = [payload] * self.nprocs
        return 0, payload, None, None

    # -- instruction selection ---------------------------------------------------
    #
    # A statement whose value or condition lowered to a _MIX or _OP shape
    # becomes one closure that reads its leaf operands inline, left to
    # right, raising the reference's unbound-variable error at the first
    # unbound one; so does a send of a variable to a constant or
    # rank-pure destination.

    def _fused_assign(self, kind: str, payload, slot: int, done: tuple):
        name, parts = payload
        leaves = tuple(self._leaf(part) for part in parts)
        if kind is _MIX:
            start = MIX_STATES[name]
            mask, multiplier = MIX_MASK, MIX_MULTIPLIER

            def mix_assign(proc):
                regs = proc._regs
                rank = proc.rank
                acc = start
                for source, vector, ident, line in leaves:
                    value = regs[source] if vector is None else vector[rank]
                    if value is _UNBOUND:
                        raise _unbound(proc, ident, line)
                    # One round of builtins.mixer's loop per argument.
                    acc = (acc ^ (value & mask)) * multiplier & mask
                    acc ^= acc >> 13
                if regs[slot] is _UNBOUND:
                    proc._order.append(slot)
                regs[slot] = acc
                return done

            return mix_assign
        op = _FUSED_OPS[name]
        (slot1, vector1, ident1, line1), (slot2, vector2, ident2, line2) = \
            leaves

        def op_assign(proc):
            regs = proc._regs
            left = regs[slot1] if vector1 is None else vector1[proc.rank]
            if left is _UNBOUND:
                raise _unbound(proc, ident1, line1)
            right = regs[slot2] if vector2 is None else vector2[proc.rank]
            if right is _UNBOUND:
                raise _unbound(proc, ident2, line2)
            result = int(op(left, right))
            if regs[slot] is _UNBOUND:
                proc._order.append(slot)
            regs[slot] = result
            return done

        return op_assign

    def _fused_test(self, payload, true_pc: int, false_pc: int, loop: bool):
        """A branch (or, with *loop*, a while head) on ``a op b``."""
        name, parts = payload
        op = _FUSED_OPS[name]
        (slot1, vector1, ident1, line1), (slot2, vector2, ident2, line2) = [
            self._leaf(part) for part in parts
        ]

        def test(proc):
            regs = proc._regs
            left = regs[slot1] if vector1 is None else vector1[proc.rank]
            if left is _UNBOUND:
                raise _unbound(proc, ident1, line1)
            right = regs[slot2] if vector2 is None else vector2[proc.rank]
            if right is _UNBOUND:
                raise _unbound(proc, ident2, line2)
            if op(left, right):
                if loop:
                    proc._loops[-1][0] += 1
                return true_pc
            if loop:
                proc._loops.pop()
            return false_pc

        return test

    def _fused_send(self, stmt, dests: list, leaf: tuple, cont, tmpl):
        slot, _, ident, line = leaf
        nprocs = self.nprocs

        def send(proc):
            dest = dests[proc.rank]
            if not 0 <= dest < nprocs:
                raise _out_of_range(proc, dest, nprocs, stmt.line)
            value = proc._regs[slot]
            if value is _UNBOUND:
                raise _unbound(proc, ident, line)
            effect = _new(SendEffect)
            fields = effect.__dict__
            fields["dest"] = dest
            fields["value"] = value
            fields["stmt"] = stmt
            return cont, effect, tmpl

        return send

    # -- instruction lowering ------------------------------------------------------

    def _instruction(self, desc: list):
        """The closure executing one resolved descriptor."""
        kind = desc[0]
        if kind == "eff":
            return self._lower_effect(desc[1], desc[2], desc[3])
        if kind == "branch":
            part = self._lower_expr(desc[1])
            then_pc, else_pc = desc[2], desc[3]
            # A constant or rank-pure condition folds to its target pc.
            target = _fold(
                lambda value: then_pc if value != 0 else else_pc, [part]
            )
            if target is not None:
                return _thunk(*target)
            if part[0] is _OP:
                return self._fused_test(part[1], then_pc, else_pc, False)
            cond = _thunk(*part)
            return lambda proc: then_pc if cond(proc) != 0 else else_pc
        if kind == "jump":
            # Unreachable after threading; a guard, not a hot path.
            return _raiser("jump instruction executed")
        if kind == "wenter":
            next_pc = desc[1]

            def while_enter(proc):
                proc._loops.append([0])
                return next_pc

            return while_enter
        if kind == "whead":
            part = self._lower_expr(desc[1].cond)
            body_pc, exit_pc = desc[2], desc[3]
            if part[0] is _OP:
                return self._fused_test(part[1], body_pc, exit_pc, True)
            cond = _thunk(*part)

            def while_head(proc):
                if cond(proc) != 0:
                    proc._loops[-1][0] += 1
                    return body_pc
                proc._loops.pop()
                return exit_pc

            return while_head
        if kind == "fenter":
            count = _thunk(*self._lower_expr(desc[1].count))
            next_pc = desc[2]

            def for_enter(proc):
                value = count(proc)
                proc._loops.append([value if value > 0 else 0, 0])
                return next_pc

            return for_enter
        if kind == "fhead":
            slot = self.symtab[desc[1].var]
            body_pc, exit_pc = desc[2], desc[3]

            def for_head(proc):
                top = proc._loops[-1]
                remaining = top[0]
                if remaining > 0:
                    trip = top[1]
                    regs = proc._regs
                    if regs[slot] is _UNBOUND:
                        proc._order.append(slot)
                    regs[slot] = trip
                    top[0] = remaining - 1
                    top[1] = trip + 1
                    return body_pc
                proc._loops.pop()
                return exit_pc

            return for_head
        raise SimulationError(f"unknown instruction {kind!r}")

    def _per_rank(self, make, static: bool):
        """*make(proc)*, evaluated at most once per rank when *static*.

        A result that depends on nothing but the rank is memoised in a
        rank-indexed vector on the program, filled when a rank first
        executes the statement — so *make*'s range error still fires
        at that execution point and a rank that never gets there
        allocates nothing.
        """
        if not static:
            return make
        memo = [None] * self.nprocs

        def cached(proc):
            result = memo[proc.rank]
            if result is None:
                result = memo[proc.rank] = make(proc)
            return result

        return cached

    def _endpoint(self, part, line: int):
        """``(is_static, closure)`` for a lowered send/recv/bcast endpoint.

        The closure evaluates the endpoint and range-checks it the way
        the reference does — when the statement executes.
        """
        value, nprocs = _thunk(*part), self.nprocs

        def endpoint(proc):
            rank = value(proc)
            if not 0 <= rank < nprocs:
                raise _out_of_range(proc, rank, nprocs, line)
            return rank

        return part[0] in _STATIC_KINDS, endpoint

    def _lower_effect(self, stmt, tmpl: tuple, cont: int):
        stmt_type = type(stmt)
        if stmt_type is ast.Assign:
            slot = self.symtab[stmt.target]
            kind, payload = self._lower_expr(stmt.value)
            done = (cont, LocalEffect(description=stmt.target), tmpl)
            if kind is _MIX or kind is _OP:
                return self._fused_assign(kind, payload, slot, done)
            value = _thunk(kind, payload)

            def assign(proc):
                result = value(proc)
                regs = proc._regs
                if regs[slot] is _UNBOUND:
                    proc._order.append(slot)
                regs[slot] = result
                return done

            return assign
        if stmt_type is ast.Pass:
            done = (cont, LocalEffect(description="pass"), tmpl)
            return lambda proc: done
        if stmt_type is ast.Compute:
            kind, cost = self._lower_expr(stmt.cost)
            if kind is _CONST:
                done = (cont, ComputeEffect(cost=float(cost)), tmpl)
                return lambda proc: done
            cost = _thunk(kind, cost)
            return self._per_rank(
                lambda proc: (
                    cont, ComputeEffect(cost=float(cost(proc))), tmpl
                ),
                kind is _RANK,
            )
        if stmt_type is ast.Send:
            # Evaluate the destination, range-check it, THEN evaluate
            # the value — the reference order, observable via input().
            dest_part = self._lower_expr(stmt.dest)
            value_kind, value = self._lower_expr(stmt.value)
            if value_kind is _REG and dest_part[0] in _STATIC_KINDS:
                dests = self._leaf(dest_part)[1]
                return self._fused_send(stmt, dests, value, cont, tmpl)
            dest_static, dest = self._endpoint(dest_part, stmt.line)
            value = _thunk(value_kind, value)
            return self._per_rank(
                lambda proc: (
                    cont,
                    SendEffect(dest=dest(proc), value=value(proc), stmt=stmt),
                    tmpl,
                ),
                dest_static and value_kind in _STATIC_KINDS,
            )
        if stmt_type is ast.Recv:
            source_static, source = self._endpoint(
                self._lower_expr(stmt.source), stmt.line
            )
            target = stmt.target
            pending = (self.symtab[target], target)
            done_for = self._per_rank(
                lambda proc: (
                    cont,
                    RecvEffect(source=source(proc), target=target, stmt=stmt),
                    tmpl,
                ),
                source_static,
            )

            def recv(proc):
                done = done_for(proc)
                proc._pending = pending
                return done

            return recv
        if stmt_type is ast.Bcast:
            return self._lower_bcast(stmt, tmpl, cont)
        if stmt_type is ast.Checkpoint:
            done = (cont, CheckpointEffect(stmt=stmt), tmpl)

            def checkpoint(proc):
                proc.checkpoint_count += 1
                return done

            return checkpoint
        return _raiser(f"unknown statement {stmt!r}")

    def _lower_bcast(self, stmt: ast.Bcast, tmpl: tuple, cont: int):
        root_static, root = self._endpoint(
            self._lower_expr(stmt.root), stmt.line
        )
        value = _thunk(*self._lower_expr(stmt.value))
        target = stmt.target
        slot = self.symtab[target]
        pending = (slot, target)
        # A non-root rank's effect depends on the root alone.
        leaves = [None] * self.nprocs if root_static else None

        def bcast(proc):
            origin = root(proc)
            if origin == proc.rank:
                result = value(proc)
                regs = proc._regs
                if regs[slot] is _UNBOUND:
                    proc._order.append(slot)
                regs[slot] = result
                return (cont, BcastSendEffect(value=result, stmt=stmt), tmpl)
            proc._pending = pending
            done = None if leaves is None else leaves[proc.rank]
            if done is None:
                done = (
                    cont,
                    BcastRecvEffect(root=origin, target=target, stmt=stmt),
                    tmpl,
                )
                if leaves is not None:
                    leaves[proc.rank] = done
            return done

        return bcast

    # -- binding ---------------------------------------------------------------

    def bind(
        self,
        rank: int,
        params: dict[str, int] | None = None,
        inputs: InputProvider | None = None,
    ) -> "CompiledProcess":
        """Allocate one rank's state over the shared instruction table."""
        if params and not params.keys() <= self.symtab.keys():
            # A parameter the program never mentions still belongs to
            # ``env``: the first rank to bind registers its slot.
            for name in params:
                self.ensure_slot(name)
        return CompiledProcess(self, rank, params=params, inputs=inputs)


def compile_program(program: ast.Program, n_processes: int) -> CompiledProgram:
    """Lower *program* for an ``n_processes``-rank simulation."""
    return CompiledProgram(program, n_processes)


class CompiledProcess:
    """One rank's state over a :class:`CompiledProgram`.

    Drop-in replacement for
    :class:`~repro.runtime.interpreter.ProcessInterpreter`: same driving
    protocol (``step``/``deliver``), same snapshot/restore contract,
    same attribute surface (``env``, ``checkpoint_count``, ``finished``),
    bit-identical behaviour. It owns a register
    file, the first-binding order and a loop stack; the code it runs
    belongs to the program and takes this object as its argument.
    """

    __slots__ = (
        "compiled", "program", "rank", "nprocs", "inputs",
        "checkpoint_count", "_regs", "_order", "_loops", "_pending",
        "_staged", "_pc", "_tmpl", "_code",
    )

    def __init__(
        self,
        compiled: CompiledProgram,
        rank: int,
        params: dict[str, int] | None = None,
        inputs: InputProvider | None = None,
    ) -> None:
        nprocs = compiled.nprocs
        if not 0 <= rank < nprocs:
            raise SimulationError(
                f"rank {rank} out of range for {nprocs} processes"
            )
        self.compiled = compiled
        self.program = compiled.program
        self.rank = rank
        self.nprocs = nprocs
        self.inputs = inputs if inputs is not None else InputProvider()
        self.checkpoint_count = 0
        self._regs: list = [_UNBOUND] * len(compiled.names)
        self._order: list[int] = []
        for name, value in (params or {}).items():
            slot = compiled.symtab[name]
            self._regs[slot] = value
            self._order.append(slot)
        self._loops: list[list[int]] = []
        self._pending: tuple[int, str] | None = None
        self._staged = _NO_STAGE
        self._pc = compiled.entry_pc
        self._tmpl = compiled.init_tmpl
        self._code = compiled.code

    # -- state queries --------------------------------------------------------

    @property
    def env(self) -> dict[str, int]:
        """The variable environment, in reference insertion order."""
        names = self.compiled.names
        regs = self._regs
        return {names[slot]: regs[slot] for slot in self._order}

    @property
    def finished(self) -> bool:
        """True once the program has run to completion."""
        return self._pc < 0 and not self._tmpl

    @property
    def pending_recv(self) -> str | None:
        """Name of the variable awaiting a delivery, if any."""
        pending = self._pending
        return None if pending is None else pending[1]

    # -- snapshot / restore -----------------------------------------------------

    def snapshot(self) -> ProcessSnapshot:
        """Capture current state (legal even while blocked at a recv)."""
        return self._snapshot(self.env)

    def _snapshot(self, env: dict[str, int]) -> ProcessSnapshot:
        """The snapshot of the current state that stores *env*."""
        frames = []
        loops = iter(self._loops)
        for entry in self._tmpl:
            kind = entry[0]
            if kind == "block":
                frame = (kind, entry[1], entry[2], None, 0, 0)
            elif kind == "while":
                frame = (kind, None, 0, entry[1], 0, next(loops)[0])
            else:
                frame = (kind, None, 0, entry[1], *next(loops))
            frames.append(tuple.__new__(FrameState, frame))
        # Built through __dict__: one snapshot per checkpoint, and the
        # generated frozen __init__ costs ~3x this path.
        snap = ProcessSnapshot.__new__(ProcessSnapshot)
        snap.__dict__.update(
            env=env,
            frames=tuple(frames),
            checkpoint_count=self.checkpoint_count,
            input_counters=self.inputs.snapshot(self.rank),
            pending_recv=self.pending_recv,
        )
        return snap

    def configure_pruning(
        self, dead_sets: dict[int, frozenset[str]]
    ) -> None:
        """Install pruning masks on the shared lowering (idempotent)."""
        self.compiled.configure_pruning(dead_sets)

    def snapshot_pruned(self, stmt_id: int | None) -> ProcessSnapshot:
        """Snapshot with dead register slots zeroed for *stmt_id*.

        Same contract as the reference interpreter's ``snapshot_pruned``:
        every bound slot keeps its entry and insertion position, but
        slots in the checkpoint's precomputed dead mask store a
        deterministic 0. Falls back to a plain snapshot when no mask is
        installed for this statement.
        """
        mask = self.compiled.checkpoint_dead_slots.get(stmt_id)
        if not mask:
            return self.snapshot()
        names = self.compiled.names
        regs = self._regs
        return self._snapshot({
            names[slot]: (0 if slot in mask else regs[slot])
            for slot in self._order
        })

    def restore(self, snap: ProcessSnapshot) -> None:
        """Rewind to *snap* (rollback or restart after a failure)."""
        entry = self.compiled._restore.get(_frames_key(snap.frames))
        if entry is None:
            raise SimulationError(
                "snapshot does not correspond to any control point of "
                "the compiled program"
            )
        self._pc, self._tmpl = entry
        regs = self._regs
        for slot in range(len(regs)):
            regs[slot] = _UNBOUND
        order = self._order
        order.clear()
        symtab = self.compiled.symtab
        for name, value in snap.env.items():
            slot = symtab.get(name)
            if slot is None:
                raise SimulationError(
                    f"snapshot variable {name!r} is unknown to the "
                    "compiled program"
                )
            regs[slot] = value
            order.append(slot)
        loops = self._loops
        loops.clear()
        for frame in snap.frames:
            if frame.kind == "while":
                loops.append([frame.trip])
            elif frame.kind == "for":
                loops.append([frame.remaining, frame.trip])
        self.checkpoint_count = snap.checkpoint_count
        self.inputs.restore(self.rank, snap.input_counters)
        name = snap.pending_recv
        self._pending = None if name is None else (symtab[name], name)
        self._staged = _NO_STAGE

    # -- execution ----------------------------------------------------------------

    def step(self):
        """Advance to the next effect; ``None`` when the program is done.

        Raises if called while a receive is awaiting its delivery.
        """
        staged = self._staged
        if staged is not _NO_STAGE:
            # step_local() already executed the statement and staged its
            # effect (possibly None for "finished"); hand it over without
            # re-executing anything. The pending check is skipped on
            # purpose: a staged RecvEffect has already set _pending.
            self._staged = _NO_STAGE
            return staged
        if self._pending is not None:
            raise SimulationError("step() called while awaiting a delivery")
        pc = self._pc
        if pc < 0:
            # Finished (or an empty program finishing its first step):
            # the reference interpreter pops exhausted frames lazily, so
            # the control stack empties only now.
            self._tmpl = _EMPTY_TMPL
            self._loops.clear()
            return None
        code = self._code
        while True:
            result = code[pc](self)
            if result.__class__ is int:
                pc = result
                if pc < 0:
                    self._pc = -1
                    self._tmpl = _EMPTY_TMPL
                    self._loops.clear()
                    return None
            else:
                self._pc = result[0]
                self._tmpl = result[2]
                return result[1]

    def step_local(self):
        """Execute the next statement only if it yields a ``LocalEffect``.

        Engine fast path: returns True when one local statement ran (the
        caller owns the clock/step accounting the normal
        ``step()``/``_perform`` pair would have done), False when the
        next effect is anything else — in that case the statement has
        still been executed and its effect is *staged*, to be returned
        by the next ``step()`` call. Either way the statement executes
        exactly once, so the effect stream is unchanged.
        """
        if self._staged is not _NO_STAGE or self._pending is not None:
            return False
        pc = self._pc
        if pc < 0:
            return False
        code = self._code
        while True:
            result = code[pc](self)
            if result.__class__ is int:
                pc = result
                if pc < 0:
                    self._pc = -1
                    self._tmpl = _EMPTY_TMPL
                    self._loops.clear()
                    self._staged = None
                    return False
            else:
                self._pc = result[0]
                self._tmpl = result[2]
                effect = result[1]
                if effect.__class__ is LocalEffect:
                    return True
                self._staged = effect
                return False

    def deliver(self, value: int) -> None:
        """Complete a pending receive with *value*."""
        pending = self._pending
        if pending is None:
            raise SimulationError("deliver() without a pending receive")
        slot = pending[0]
        regs = self._regs
        if regs[slot] is _UNBOUND:
            self._order.append(slot)
        regs[slot] = value
        self._pending = None
