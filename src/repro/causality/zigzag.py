"""Zigzag paths and useless checkpoints (Netzer & Xu, 1995).

The classical theory behind communication-induced checkpointing — the
third family in the paper's Section 1 taxonomy. A *zigzag path* from
checkpoint ``A`` to checkpoint ``B`` is a message chain
``m₁, …, mₙ`` where

- ``m₁`` is sent by ``A``'s process after ``A``;
- each ``mᵢ₊₁`` is sent by the process that received ``mᵢ``, in the
  same or a later checkpoint interval (possibly *before* ``mᵢ`` was
  received — that backward hop is the "zig"); and
- ``mₙ`` is received by ``B``'s process before ``B``.

**Netzer-Xu theorem**: two checkpoints can both belong to some
consistent global snapshot iff there is no zigzag path between them (in
either direction); a checkpoint is *useless* — part of no consistent
snapshot at all — iff it lies on a zigzag cycle.

The test suite validates the theorem on simulated traces against a
brute-force search over all (boundary-augmented) cuts, tying this
module to the happened-before machinery through an independent
characterisation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

from repro.causality.cuts import checkpoints_by_process
from repro.causality.records import EventKind, TraceEvent


@dataclass(frozen=True)
class _MessageHop:
    """One message, located by interval indices.

    ``send_interval``/``recv_interval`` count the checkpoints taken by
    the respective process *before* the send/receive event, so interval
    ``k`` is the execution between the k-th and (k+1)-th checkpoints.
    """

    message_id: int
    sender: int
    send_interval: int
    receiver: int
    recv_interval: int


def _interval_index(
    grouped: dict[int, list[TraceEvent]], event: TraceEvent
) -> int:
    history = grouped.get(event.process, [])
    return sum(1 for c in history if c.seq < event.seq)


def _message_hops(events: list[TraceEvent]) -> list[_MessageHop]:
    grouped = checkpoints_by_process(events)
    sends: dict[int, TraceEvent] = {}
    hops: list[_MessageHop] = []
    for event in events:
        if event.kind is EventKind.SEND and event.message_id is not None:
            sends[event.message_id] = event
    for event in events:
        if event.kind is not EventKind.RECV or event.message_id is None:
            continue
        send = sends.get(event.message_id)
        if send is None:
            continue
        hops.append(
            _MessageHop(
                message_id=event.message_id,
                sender=send.process,
                send_interval=_interval_index(grouped, send),
                receiver=event.process,
                recv_interval=_interval_index(grouped, event),
            )
        )
    return hops


class ZigzagAnalysis:
    """Zigzag reachability between the checkpoints of one trace.

    Checkpoints are identified as ``(process, number)`` with 1-based
    dynamic numbers (matching
    :attr:`~repro.causality.records.TraceEvent.checkpoint_number`).
    Interval ``k`` of a process runs from its k-th to its (k+1)-th
    checkpoint; checkpoint ``(p, i)`` sits between intervals ``i-1``
    and ``i``.
    """

    def __init__(self, events: list[TraceEvent]) -> None:
        self._events = list(events)
        self._hops = _message_hops(self._events)
        # hop adjacency: hop h can be followed by hop h' iff h' is sent
        # by h's receiver in interval >= h's receive interval.
        self._by_sender: dict[int, list[_MessageHop]] = defaultdict(list)
        for hop in self._hops:
            self._by_sender[hop.sender].append(hop)
        self._reachable_cache: dict[int, frozenset[int]] = {}
        # Lazy one-time closure machinery: one bit per hop, built on the
        # first reachability query, so every query after that is a mask
        # intersection instead of a graph walk.
        self._closure_masks: list[int] | None = None
        self._hop_pos: dict[int, int] = {}
        self._start_mask_cache: dict[tuple[int, int], int] = {}
        self._recv_mask_cache: dict[tuple[int, int], int] = {}

    # -- core reachability ----------------------------------------------------

    def _ensure_closures(self) -> list[int]:
        """Build (once) the per-hop zigzag transitive-closure bitmasks.

        Hops get bit positions in trace order; the adjacency is condensed
        with an iterative Tarjan SCC pass and closed in one sweep over
        the components (Tarjan emits them descendants-first). The mask of
        hop ``i`` is *inclusive* of bit ``i``, matching the historical
        :meth:`_closure_from` contract. Total bit work is O(H·E/64)
        where the old per-query DFS walk was O(H·E) per start hop.
        """
        if self._closure_masks is not None:
            return self._closure_masks
        hops = self._hops
        self._hop_pos = {id(hop): position for position, hop in enumerate(hops)}
        # Successors of hop h: hops sent by h.receiver with
        # send_interval >= h.recv_interval — a suffix of the receiver's
        # hops when sorted by send interval.
        sorted_by_sender: dict[int, list[_MessageHop]] = {
            sender: sorted(sent, key=lambda hop: hop.send_interval)
            for sender, sent in self._by_sender.items()
        }
        send_intervals = {
            sender: [hop.send_interval for hop in sent]
            for sender, sent in sorted_by_sender.items()
        }
        succ: list[list[int]] = []
        for hop in hops:
            sent = sorted_by_sender.get(hop.receiver)
            if not sent:
                succ.append([])
                continue
            cut = bisect_left(send_intervals[hop.receiver], hop.recv_interval)
            succ.append([self._hop_pos[id(nxt)] for nxt in sent[cut:]])

        index_of: dict[int, int] = {}
        lowlink: dict[int, int] = {}
        on_stack: set[int] = set()
        scc_stack: list[int] = []
        comp_of: dict[int, int] = {}
        components: list[list[int]] = []
        counter = 0
        for root in range(len(hops)):
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
                mask |= 1 << member
                for child in succ[member]:
                    child_comp = comp_of[child]
                    if child_comp != comp_id:
                        mask |= comp_mask[child_comp]
            comp_mask[comp_id] = mask

        self._closure_masks = [
            comp_mask[comp_of[position]] for position in range(len(hops))
        ]
        return self._closure_masks

    def _closure_from(self, start: _MessageHop) -> frozenset[int]:
        """ids of hops zigzag-reachable from *start* (inclusive)."""
        key = id(start)
        cached = self._reachable_cache.get(key)
        if cached is not None:
            return cached
        masks = self._ensure_closures()
        mask = masks[self._hop_pos[key]]
        result = frozenset(
            id(hop)
            for position, hop in enumerate(self._hops)
            if mask >> position & 1
        )
        self._reachable_cache[key] = result
        return result

    def _start_mask(self, checkpoint: tuple[int, int]) -> int:
        """Union closure mask over hops the source can start a path with."""
        cached = self._start_mask_cache.get(checkpoint)
        if cached is not None:
            return cached
        src_proc, src_number = checkpoint
        masks = self._ensure_closures()
        mask = 0
        for hop in self._by_sender.get(src_proc, ()):
            if hop.send_interval >= src_number:
                mask |= masks[self._hop_pos[id(hop)]]
        self._start_mask_cache[checkpoint] = mask
        return mask

    def _recv_mask(self, checkpoint: tuple[int, int]) -> int:
        """Bitmask of hops that can terminate a path at *checkpoint*."""
        cached = self._recv_mask_cache.get(checkpoint)
        if cached is not None:
            return cached
        dst_proc, dst_number = checkpoint
        mask = 0
        for position, hop in enumerate(self._hops):
            if hop.receiver == dst_proc and hop.recv_interval < dst_number:
                mask |= 1 << position
        self._recv_mask_cache[checkpoint] = mask
        return mask

    def zigzag_path_exists(
        self, from_checkpoint: tuple[int, int], to_checkpoint: tuple[int, int]
    ) -> bool:
        """Is there a zigzag path from one checkpoint to another?

        ``from_checkpoint``/``to_checkpoint`` are ``(process, number)``.
        A path must start with a message sent by the source's process in
        interval ≥ its number, and end with a message received by the
        target's process in interval < its number.
        """
        return bool(
            self._start_mask(from_checkpoint) & self._recv_mask(to_checkpoint)
        )

    def on_zigzag_cycle(self, checkpoint: tuple[int, int]) -> bool:
        """Netzer-Xu uselessness: a zigzag path from a checkpoint to
        itself means it belongs to no consistent snapshot."""
        return self.zigzag_path_exists(checkpoint, checkpoint)

    def useless_checkpoints(self) -> list[tuple[int, int]]:
        """All (process, number) checkpoints lying on zigzag cycles."""
        useless = []
        for process, history in checkpoints_by_process(self._events).items():
            for event in history:
                key = (process, event.checkpoint_number)
                if self.on_zigzag_cycle(key):
                    useless.append(key)
        return sorted(useless)

    def zz_consistent(
        self, a: tuple[int, int], b: tuple[int, int]
    ) -> bool:
        """No zigzag path in either direction (the theorem's condition
        for the pair to belong to some consistent snapshot)."""
        if a == b:
            return not self.on_zigzag_cycle(a)
        return not (
            self.zigzag_path_exists(a, b) or self.zigzag_path_exists(b, a)
        )
