"""The contract between an execution backend and the engine.

Effects out, snapshots back. A backend process advances one statement
at a time and *yields an effect* describing what the statement needs
from the outside world; the engine performs it (accounting for
simulated time, routing messages, taking snapshots) and resumes the
process. This keeps the backend pure and the engine in full control of
time and interleaving. At a checkpoint the engine asks the process for
a :class:`ProcessSnapshot` and hands one back to ``restore`` on
rollback; storage and encoding read nothing else of a backend.

Driving protocol::

    effect = proc.step()            # None when the program finished
    ...engine performs the effect...
    proc.deliver(value)             # only after a Recv/BcastRecv effect
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class Effect:
    """Base class for effects."""


@dataclass(frozen=True)
class LocalEffect(Effect):
    """A cheap local statement (assignment, pass, branch evaluation)."""

    description: str = ""


@dataclass(frozen=True)
class ComputeEffect(Effect):
    """``compute(cost)``: opaque local work of the given duration."""

    cost: float


@dataclass(frozen=True)
class SendEffect(Effect):
    """Point-to-point send of *value* to rank *dest*."""

    dest: int
    value: int
    stmt: ast.Send


@dataclass(frozen=True)
class RecvEffect(Effect):
    """Blocking receive from rank *source* into variable *target*."""

    source: int
    target: str
    stmt: ast.Recv


@dataclass(frozen=True)
class BcastSendEffect(Effect):
    """Collective broadcast, root side: deliver *value* to every rank."""

    value: int
    stmt: ast.Bcast


@dataclass(frozen=True)
class BcastRecvEffect(Effect):
    """Collective broadcast, non-root side: blocking receive from *root*."""

    root: int
    target: str
    stmt: ast.Bcast


@dataclass(frozen=True)
class CheckpointEffect(Effect):
    """``checkpoint``: snapshot process state to stable storage."""

    stmt: ast.Checkpoint


class FrameState(NamedTuple):
    """One frozen control-stack entry inside a :class:`ProcessSnapshot`.

    ``kind`` is ``"block"`` (executing ``block`` at ``index``),
    ``"while"`` (``trip`` passes of ``stmt`` done) or ``"for"``
    (``remaining`` iterations of ``stmt`` left). Checkpoint payloads
    read ``kind``/``index``/``remaining``/``trip``.
    """

    kind: str
    block: ast.Block | None = None
    index: int = 0
    stmt: ast.Stmt | None = None
    remaining: int = 0
    trip: int = 0


@dataclass(frozen=True)
class ProcessSnapshot:
    """A restorable snapshot of one process's state.

    Frames are tuple-frozen :class:`FrameState` records, the environment
    is copied, the AST is shared. ``checkpoint_count`` preserves dynamic
    checkpoint numbering across rollbacks; ``input_counters`` preserves
    the input stream position. ``pending_recv`` is the awaited variable
    when the snapshot was taken while blocked at a receive (protocols
    may checkpoint a blocked process); restoring such a snapshot
    re-enters the blocked state and the engine re-issues the receive.
    """

    env: dict[str, int]
    frames: tuple[FrameState, ...]
    checkpoint_count: int
    input_counters: dict[str, int]
    pending_recv: str | None = None
