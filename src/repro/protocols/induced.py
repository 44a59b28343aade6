"""Communication-induced checkpointing (BCS index-based).

The Briatico-Ciuffoletti-Simoncini scheme: every process keeps a
checkpoint *index*, piggybacked on every application message. Basic
checkpoints fire on a local timer (index += 1); when a message arrives
carrying an index greater than the receiver's, the receiver takes a
**forced checkpoint** adopting the sender's index *before* consuming
the message. The invariant — checkpoints with equal index are pairwise
concurrent — bounds rollback to one index without any control messages;
the cost is the forced checkpoints, which the stats expose.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.protocols.base import PeriodicProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation
    from repro.runtime.network import Message
    from repro.runtime.storage import StoredCheckpoint

_PIGGYBACK_KEY = "bcs_index"


class InducedProtocol(PeriodicProtocol):
    """BCS-style index-based communication-induced checkpointing."""

    name = "CIC-BCS"
    timer = "bcs"
    #: The BCS invariant: checkpoints with equal index are concurrent.
    recovery_lines = "tag"

    def __init__(self, period: float = 50.0, stagger: float = 0.5) -> None:
        super().__init__(period, stagger)
        self._index: dict[int, int] = {}
        # (index -> checkpoint) per rank; index 0 is the initial state.
        self._by_index: dict[int, dict[int, "StoredCheckpoint"]] = {}

    def on_start(self, sim: "Simulation") -> None:
        for rank in range(sim.n):
            self._index[rank] = 0
            self._by_index[rank] = {0: sim.storage.history(rank)[0]}
        super().on_start(sim)

    def piggyback(self, sim: "Simulation", rank: int) -> dict[str, int]:
        return {_PIGGYBACK_KEY: self._index.get(rank, 0)}

    def on_app_message(
        self, sim: "Simulation", rank: int, message: "Message"
    ) -> None:
        incoming = message.piggyback.get(_PIGGYBACK_KEY, 0)
        if incoming > self._index.get(rank, 0):
            # Forced checkpoint BEFORE consuming the message, adopting
            # the sender's index — the BCS induction rule.
            self._checkpoint(sim, rank, message.arrival_time, incoming)

    def _checkpoint(
        self, sim: "Simulation", rank: int, time: float,
        forced_index: int | None = None,
    ) -> None:
        """A basic checkpoint at the next index or, given *forced_index*,
        a forced one adopting it."""
        forced = forced_index is not None
        index = forced_index if forced else self._index[rank] + 1
        stored = sim.take_checkpoint(
            rank, time, tag=f"bcs-{index}", forced=forced
        )
        # A rank covers an index only once its checkpoint is stored: a
        # lost write must not advance it past the hole.
        if stored is not None:
            self._index[rank] = index
            self._by_index[rank][index] = stored

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Roll back to the highest index every process has covered.

        For target index ``i``, each process restores its latest
        checkpoint with index ≤ ``i``; by the BCS invariant that cut is
        consistent (no member can have received a message sent after a
        same-or-lower-index checkpoint of another member).
        """
        target = min(max(indexed) for indexed in self._by_index.values())
        cut = {}
        for r, indexed in self._by_index.items():
            best = max(i for i in indexed if i <= target)
            cut[r] = indexed[best]
        sim.restore_cut(cut, time)
        for r, indexed in self._by_index.items():
            kept = cut[r]
            self._by_index[r] = {
                i: c for i, c in indexed.items() if i <= self._index_of(kept, indexed)
            }
            self._index[r] = max(self._by_index[r])

    @staticmethod
    def _index_of(checkpoint: "StoredCheckpoint", indexed: dict) -> int:
        for i, c in indexed.items():
            if c is checkpoint:
                return i
        return 0
