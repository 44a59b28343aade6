"""Checkpoint cuts, consistency, and straight cuts (paper §2).

A *cut of checkpoints* has one checkpoint per process; it is
*consistent* — a recovery line — iff no member happened before another
(Definition 2.1). The *straight cut* ``R_i`` collects each process's
*i*-th checkpoint (Definitions 2.2/2.3).

Indexing note (documented in DESIGN.md): checkpoints are numbered
dynamically per process (the *k*-th checkpoint event of process *p* is
``C_{p,k}``). For the paper's loop programs this matches its intent —
the Figure 1 program's ``R_i`` pairs iteration-*i* checkpoints and is
consistent, while the Figure 2 program's is not. The static "latest
*i*-th" reading of Definition 2.3 is also provided
(:func:`latest_straight_cut`) keyed by originating statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock, _lane_max
from repro.errors import RecoveryError


@dataclass(frozen=True)
class CheckpointCut:
    """A cut: one checkpoint event per process, keyed by rank."""

    members: tuple[TraceEvent, ...]

    def __post_init__(self) -> None:
        ranks = [e.process for e in self.members]
        if len(set(ranks)) != len(ranks):
            raise RecoveryError("a cut must contain one checkpoint per process")
        for event in self.members:
            if event.kind is not EventKind.CHECKPOINT:
                raise RecoveryError(f"cut member is not a checkpoint: {event!r}")

    def member_for(self, process: int) -> TraceEvent:
        """The cut member belonging to *process*."""
        for event in self.members:
            if event.process == process:
                return event
        raise RecoveryError(f"cut has no member for process {process}")

    @property
    def processes(self) -> frozenset[int]:
        """The ranks covered by this cut."""
        return frozenset(e.process for e in self.members)


def first_causal_pair(
    clocks: Mapping[int, VectorClock],
) -> tuple[int, int] | None:
    """The first ``(p, q)`` in rank order with ``clocks[p] -> clocks[q]``.

    *clocks* maps each member's rank to its vector clock; ``None`` means
    the cut is consistent (Definition 2.1). Mixed widths raise
    ``ValueError``. ``c_p -> c_q`` needs ``c_q[p] >= c_p[p]``, so one
    pass folds the members' clocks, each with its own lane masked, by
    byte-lane maximum and compares the fold with the diagonal (each
    member's own component): only a rank whose column reaches its own
    component is confirmed with ``happened_before``. The filter is
    necessary and the confirmation is the definition, so the answer is
    exact for any clocks; as the engine ticks a rank's own lane at each
    checkpoint, a consistent cut of a run flags no rank. A clock that
    is not packed, or a rank without a lane, is filtered by components.
    """
    ranks = sorted(clocks)
    if len(ranks) < 2:
        return None
    width = len(clocks[ranks[0]])
    for rank in ranks:
        if len(clocks[rank]) != width:
            raise ValueError(
                f"clock size mismatch: {width} vs {len(clocks[rank])}"
            )
    packed = [clocks[rank].packed for rank in ranks]
    if None not in packed and 0 <= ranks[0] and ranks[-1] < width:
        high = int.from_bytes(b"\x80" * width, "big")
        top = 8 * width - 8
        fold = diagonal = lanes = 0
        for rank, value in zip(ranks, packed):
            lane = 0xFF << (top - 8 * rank)
            fold = _lane_max(fold, value & ~lane, high)
            diagonal |= value & lane
            lanes |= lane
        # A lane keeps its top bit where fold >= diagonal.
        failing = ((fold | high) - diagonal) & high & lanes
        candidates = [
            rank for rank in ranks if failing >> (top - 8 * rank) & 0x80
        ]
    else:
        parts = {rank: clocks[rank].components for rank in ranks}
        candidates = [
            p for p in ranks
            if not 0 <= p < width
            or any(parts[q][p] >= parts[p][p] for q in ranks if q != p)
        ]
    for p in candidates:
        for q in ranks:
            if q != p and clocks[p].happened_before(clocks[q]):
                return p, q
    return None


def cut_is_consistent(cut: CheckpointCut) -> bool:
    """Definition 2.1: no member happened before another member."""
    return first_causal_pair({e.process: e.clock for e in cut.members}) is None


def checkpoints_by_process(
    events: Iterable[TraceEvent],
) -> dict[int, list[TraceEvent]]:
    """Group checkpoint events by process, in local-history order."""
    grouped: dict[int, list[TraceEvent]] = {}
    for event in events:
        if event.kind is EventKind.CHECKPOINT:
            grouped.setdefault(event.process, []).append(event)
    for history in grouped.values():
        history.sort(key=lambda e: e.seq)
    return grouped


def straight_cut(
    events: Iterable[TraceEvent], index: int, processes: Sequence[int] | None = None
) -> CheckpointCut | None:
    """The straight cut ``R_index`` (1-based dynamic numbering).

    Returns ``None`` when some process has not yet taken its *index*-th
    checkpoint (the cut does not exist in this execution prefix).
    """
    if index < 1:
        raise RecoveryError(f"checkpoint index must be >= 1, got {index}")
    grouped = checkpoints_by_process(events)
    ranks = list(processes) if processes is not None else sorted(grouped)
    members = []
    for rank in ranks:
        history = grouped.get(rank, [])
        if len(history) < index:
            return None
        members.append(history[index - 1])
    return CheckpointCut(members=tuple(members))


def max_straight_cut_index(
    events: Iterable[TraceEvent], processes: Sequence[int]
) -> int:
    """The largest ``i`` for which ``R_i`` exists (0 when none does)."""
    grouped = checkpoints_by_process(events)
    return min((len(grouped.get(rank, [])) for rank in processes), default=0)


def latest_straight_cut(
    events: Iterable[TraceEvent],
    stmt_for_index: Mapping[int, frozenset[int]],
    index: int,
    processes: Sequence[int],
) -> CheckpointCut | None:
    """Definition 2.3 verbatim: the latest *index*-th checkpoints.

    ``stmt_for_index`` maps the static checkpoint index ``i`` to the
    AST statement ids of the CFG's ``S_i`` members; a checkpoint event
    belongs to index ``i`` when its originating statement is in
    ``S_i``. The cut takes each process's **latest** such event.
    """
    wanted = stmt_for_index.get(index)
    if wanted is None:
        raise RecoveryError(f"no static checkpoint index {index}")
    members = []
    latest: dict[int, TraceEvent] = {}
    for event in events:
        if (
            event.kind is EventKind.CHECKPOINT
            and event.stmt_id in wanted
            and (
                event.process not in latest
                or event.seq > latest[event.process].seq
            )
        ):
            latest[event.process] = event
    for rank in processes:
        if rank not in latest:
            return None
        members.append(latest[rank])
    return CheckpointCut(members=tuple(members))


def orphan_messages(
    events: Iterable[TraceEvent], cut: CheckpointCut
) -> list[tuple[TraceEvent, TraceEvent]]:
    """Messages received before the cut but sent after it.

    An orphan message is the operational witness of inconsistency: its
    receive is in the cut's past while its send is not. Returns
    (send, recv) pairs; empty iff the cut state has no orphans.
    """
    all_events = list(events)
    sends = {
        e.message_id: e
        for e in all_events
        if e.kind is EventKind.SEND and e.message_id is not None
    }
    orphans: list[tuple[TraceEvent, TraceEvent]] = []
    for recv in all_events:
        if recv.kind is not EventKind.RECV or recv.message_id is None:
            continue
        if recv.process not in cut.processes:
            continue
        boundary_recv = cut.member_for(recv.process)
        if recv.seq >= boundary_recv.seq:
            continue  # received after the cut point
        send = sends.get(recv.message_id)
        if send is None or send.process not in cut.processes:
            continue
        boundary_send = cut.member_for(send.process)
        if send.seq >= boundary_send.seq:
            orphans.append((send, recv))
    return orphans
