"""Commit: a checkpoint's capture, its size and payload kind, and its
write through the fault-aware store."""

from __future__ import annotations

from repro.causality.records import EventKind
from repro.errors import SimulationError
from repro.runtime.encoding import SizeLedger
from repro.runtime.failures import StorageFaultEvent
from repro.runtime.recovery import MAX_RECOVERY_ATTEMPTS
from repro.runtime.scheduler import _Proc, _Status
from repro.runtime.storage import (
    DELTA_CHAIN_CAP,
    RetentionPolicy,
    StoredCheckpoint,
)


class Commit:
    """Checkpoint capture, pricing, write faults and retention."""

    def _init_commit(self, config, plan, program, compiled) -> None:
        self.checkpoint_mode = config.checkpoint_mode
        # Minimal content zeroes provably-dead env slots at app
        # checkpoints and stores only what changed since the rank's
        # previous published checkpoint.
        self._minimal = config.checkpoint_mode != "full"
        if self._minimal:
            # Imported here: the attributes package pulls in the CFG
            # machinery, which imports lang (and transitively this
            # module) — a top-level import would be circular.
            from repro.attributes.liveness import checkpoint_dead_sets

            # One liveness pass per simulation, shared by every rank;
            # both backends consume the same per-checkpoint dead sets.
            dead_sets = {
                stmt_id: dead
                for stmt_id, dead in checkpoint_dead_sets(program).items()
                if dead
            }
            # The compiled backend keeps its register masks on the one
            # lowered program every rank shares; each reference
            # interpreter holds its own copy.
            if compiled is not None:
                compiled.configure_pruning(dead_sets)
            elif dead_sets:
                for proc in self.procs:
                    proc.interp.configure_pruning(dead_sets)
        # Write faults arm and wait for a matching checkpoint write,
        # sorted by (time, rank).
        self._write_faults = plan.write_faults()
        # Per-rank pointer to the most recent *published* checkpoint —
        # the delta encoder's chain parent. Reset on restore, so chains
        # always rebase onto the surviving timeline.
        self._last_stored: dict[int, StoredCheckpoint] = {}
        # Where something at commit reads sizes (the delta decision, a
        # commit event), one size ledger per rank mirrors that entry
        # (checked by identity at every commit), with one key-size memo
        # between them; else ``total_bytes`` prices entries in bulk.
        memo: dict = {}
        self._size_ledgers = (
            [SizeLedger(memo) for _ in self._ranks]
            if self._minimal or self.obs is not None else None
        )
        # Retention protects every degraded-fallback candidate the
        # supervisor could escalate to (one number deeper per retry).
        self._retention = None if config.retain_k is None else RetentionPolicy(
            config.retain_k,
            protect_depth=MAX_RECOVERY_ATTEMPTS - 1,
        )

    def take_checkpoint(
        self, rank: int, at_time: float, tag: str, forced: bool = False
    ) -> StoredCheckpoint | None:
        """Protocol-initiated checkpoint of *rank* (legal while blocked).

        Returns ``None`` when a storage fault made the write fail — the
        checkpoint overhead is still paid, but nothing was published
        and ``on_checkpoint`` does not fire.
        """
        proc = self.procs[rank]
        if proc.status in (_Status.CRASHED, _Status.DONE):
            raise SimulationError(
                f"cannot checkpoint rank {rank} in state {proc.status}"
            )
        proc.interp.checkpoint_count += 1
        proc.clock = max(proc.clock, at_time) + self.costs.checkpoint_overhead
        stored = self._store_checkpoint(
            proc, stmt_id=None, tag=tag, time=proc.clock
        )
        self.stats.checkpoints += 1
        if forced:
            self.stats.forced_checkpoints += 1
        self._reschedule(rank)
        if stored is not None:
            self.protocol.on_checkpoint(self, rank, stored.number)
        return stored

    def _store_checkpoint(
        self, proc: _Proc, stmt_id: int | None, tag: str, time: float
    ) -> StoredCheckpoint | None:
        """Write a checkpoint through the fault-aware store.

        Returns the published checkpoint, or ``None`` when an injected
        storage fault made the write fail (the process carries on — its
        checkpoint numbering keeps advancing, so the straight-cut
        structure stays globally consistent with a hole at this number).
        """
        rank = proc.rank
        clock = self._tick(rank)
        # Pruned capture applies to application checkpoints only: they
        # carry the statement the live sets were computed for. Protocol
        # and initial checkpoints (stmt_id None) always capture fully —
        # no static program point, no proof of deadness.
        if self._minimal and stmt_id is not None:
            snapshot = proc.interp.snapshot_pruned(stmt_id)
        else:
            snapshot = proc.interp.snapshot()
        # Built through __dict__: the generated frozen __init__ costs
        # ~3x this, and the lazy size caches live in the same dict.
        stored = StoredCheckpoint.__new__(StoredCheckpoint)
        fields = stored.__dict__
        fields.update(
            rank=rank,
            number=proc.interp.checkpoint_count,
            snapshot=snapshot,
            clock=clock,
            time=time,
            channel_cursors=self.network.cursors_for(rank),
            stmt_id=stmt_id,
            stmt_label=(
                None if stmt_id is None else self._stmt_labels.get(stmt_id)
            ),
            tag=tag,
            blocked_effect=proc.blocked_effect,
        )
        # Structural sizes, priced from the rank's last published entry,
        # seed the entry's lazy caches; only the minimal mode prices the
        # delta. A delta must pay off (so payload <= full holds for
        # every entry) and chain below the cap.
        parent = None
        if self._size_ledgers is not None:
            parent = self._last_stored.get(rank)
            full_size, delta_size = self._size_ledgers[rank].price(
                stored, parent, delta=self._minimal
            )
            if (
                delta_size is None
                or delta_size >= full_size
                or parent.delta_depth >= DELTA_CHAIN_CAP
            ):
                parent = None
            fields.update(
                _full_bytes=full_size,
                _payload_bytes=None if parent is None else delta_size,
            )
        fields.update(
            payload_kind="full" if parent is None else "delta",
            parent=parent,
            delta_depth=0 if parent is None else parent.delta_depth + 1,
        )
        # The initial state is never a faulted write: a fault armed at
        # t = 0 hits the rank's first real checkpoint instead.
        fault = (
            None if tag == "initial"
            else self._take_write_fault(rank, time, stored.number)
        )
        receipt = self.storage.store(stored, fault=fault)
        if receipt.retries:
            # Bounded retry with exponential backoff: attempt k waits
            # backoff * 2^(k-1), charged to the writer's local clock.
            self.stats.storage_retries += receipt.retries
            proc.clock += self.costs.storage_retry_backoff * (
                2 ** receipt.retries - 1
            )
        if not receipt.published:
            self.stats.storage_write_failures += 1
            if receipt.torn:
                self.stats.torn_writes += 1
            return None
        self._last_stored[rank] = stored
        if tag != "initial":
            self.trace.append(
                EventKind.CHECKPOINT,
                proc.rank,
                time,
                clock,
                checkpoint_number=stored.number,
                stmt_id=stmt_id,
            )
            if self._retention is not None:
                self._retention.collect(self.storage, self._ranks)
        return stored

    def _rewind_commits(self, checkpoint: StoredCheckpoint) -> None:
        """Drop every entry of *checkpoint*'s rank stored after it, and
        make it the parent the rank's next delta chains onto."""
        self.storage.truncate_to(checkpoint)
        self._last_stored[checkpoint.rank] = checkpoint

    def _take_write_fault(
        self, rank: int, now: float, number: int
    ) -> StorageFaultEvent | None:
        """Pop the first armed write fault matching this write, if any."""
        for position, fault in enumerate(self._write_faults):
            if fault.time > now:
                break
            if fault.rank != rank:
                continue
            if fault.number is not None and fault.number != number:
                continue
            return self._write_faults.pop(position)
        return None
