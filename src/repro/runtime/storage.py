"""Stable storage for checkpoints.

Each stored checkpoint bundles the process snapshot, the vector clock
at the checkpoint, the channel cursors needed for exact channel
rollback, and bookkeeping tags (which protocol round produced it, which
statement). Storage survives process failures — that is its point.

:class:`CheckpointStore` keeps the per-process histories and hardens
them against the faults real checkpoint stores exhibit — lost writes,
torn (partial) writes, silent bit rot, transient I/O errors — with
per-checkpoint checksums, an atomic two-phase commit (stage → validate
→ publish), and bounded retry. :class:`ReplicatedCheckpointStore`
additionally mirrors every published checkpoint across replicas and
answers integrity queries by majority quorum. :class:`RetentionPolicy`
is the one garbage collector.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.causality.vector_clock import VectorClock
from repro.errors import StorageError, TransientStorageError
from repro.runtime.encoding import (
    apply_delta,
    checkpoint_record,
    checkpoint_sizes,
    delta_record,
    encode_record,
)
from repro.runtime.failures import FaultKind, StorageFaultEvent
from repro.runtime.interpreter import ProcessSnapshot

#: Longest run of consecutive delta-encoded checkpoints per rank before
#: a full checkpoint is forced. Caps reconstruction work at restore and
#: bounds how many ancestors safe-GC must keep alive for any one entry.
DELTA_CHAIN_CAP = 4


@dataclass(frozen=True)
class StoredCheckpoint:
    """One checkpoint of one process on stable storage.

    Attributes:
        rank: Owning process.
        number: Per-process dynamic sequence number (0 = initial state).
        snapshot: Restorable interpreter state.
        clock: Vector clock at checkpoint completion.
        time: Simulation time at which the checkpoint completed.
        channel_cursors: ``(sent, delivered)`` cursors of the process's
            channels at checkpoint time (see
            :meth:`repro.runtime.network.Network.cursors_for`).
        stmt_id: AST id of the originating checkpoint statement, if the
            checkpoint came from an application ``checkpoint`` statement.
        stmt_label: Document-order ordinal of that statement among the
            program's checkpoint statements (``None`` for protocol and
            initial checkpoints). This — never ``stmt_id`` — is what
            the wire record carries: AST node ids come from a
            process-global counter, and durable bytes must not vary
            with how many programs a process parsed earlier.
        tag: Protocol-specific label (e.g. the coordinated round id).
        blocked_effect: The receive effect the process was blocked on
            when a protocol checkpointed it mid-receive (None when the
            process was between statements); restoring such a
            checkpoint re-enters the blocked state.
        payload_kind: Wire format of the durable payload — ``"full"``
            (complete content) or ``"delta"`` (only fields changed
            since ``parent``; restore reconstructs through the chain).
        parent: For a ``"delta"`` entry, the rank's previously
            published checkpoint the delta chains to (``None`` for
            full entries). Safe GC must keep every transitive parent
            of a live entry (see :class:`RetentionPolicy`).
        delta_depth: Chain length above the nearest full checkpoint
            (0 for full entries; bounded by :data:`DELTA_CHAIN_CAP`).
    """

    rank: int
    number: int
    snapshot: ProcessSnapshot
    clock: VectorClock
    time: float
    channel_cursors: dict[tuple[int, int, str], tuple[int, int]]
    stmt_id: int | None = None
    stmt_label: int | None = None
    tag: str = ""
    blocked_effect: object | None = None
    payload_kind: str = "full"
    parent: "StoredCheckpoint | None" = None
    delta_depth: int = 0

    @property
    def full_bytes(self) -> int:
        """Structural size of the complete canonical encoding.

        Pinned equal to the encoder's output (``len`` of
        :func:`checkpoint_payload`) by test, but computed by
        :func:`~repro.runtime.encoding.checkpoint_sizes` without
        building bytes. Lazily cached (direct ``__dict__`` write — the
        dataclass is frozen but the cache is not part of its identity,
        and ``dataclasses.replace`` copies start cold); the engine
        seeds it when its full-vs-delta decision already sized the
        entry.
        """
        cached = self.__dict__.get("_full_bytes")
        if cached is None:
            cached = checkpoint_sizes(self)[0]
            self.__dict__["_full_bytes"] = cached
        return cached

    @property
    def payload_bytes(self) -> int:
        """Structural size of the durable wire form actually stored.

        Equals :attr:`full_bytes` for full entries; for delta entries,
        the size of the delta record against :attr:`parent` (pinned
        equal to ``len`` of :func:`stored_payload`).
        """
        if self.payload_kind != "delta":
            return self.full_bytes
        cached = self.__dict__.get("_payload_bytes")
        if cached is None:
            full, cached = checkpoint_sizes(self, self.parent)
            self.__dict__.update(_full_bytes=full, _payload_bytes=cached)
        return cached

    @property
    def delta_ancestors(self) -> tuple["StoredCheckpoint", ...]:
        """Transitive parents, nearest first (empty for full entries)."""
        ancestors = []
        parent = self.parent
        while parent is not None:
            ancestors.append(parent)
            parent = parent.parent
        return tuple(ancestors)


def checkpoint_payload(checkpoint: StoredCheckpoint) -> bytes:
    """Canonical byte serialisation of a checkpoint's full content.

    The canonical-encoding bytes of :func:`checkpoint_record` — the
    single serialisation shared by checksums, replication, torn-write
    staging and the delta encoder (see :mod:`repro.runtime.encoding`;
    byte accounting uses its structural size, not the bytes). For a
    delta entry this is the *reconstructed* content: byte-identical to
    chaining :func:`apply_delta` up from the nearest full ancestor,
    which is why one checksum definition covers both payload kinds.
    """
    return encode_record(checkpoint_record(checkpoint))


def stored_payload(checkpoint: StoredCheckpoint) -> bytes:
    """The durable wire form: delta bytes for delta entries, else full."""
    if checkpoint.payload_kind != "delta":
        return checkpoint_payload(checkpoint)
    return encode_record(delta_record(checkpoint, checkpoint.parent))


def reconstructed_record(checkpoint: StoredCheckpoint) -> tuple:
    """Full content rebuilt through the stored delta chain.

    Follows ``parent`` links to the nearest full entry and applies each
    delta wire record in turn — the restore-time path. The result is
    byte-identical (under :func:`~repro.runtime.encoding.encode_record`)
    to :func:`~repro.runtime.encoding.checkpoint_record` of the entry
    itself; tests pin that equivalence.
    """
    if checkpoint.payload_kind != "delta":
        return checkpoint_record(checkpoint)
    return apply_delta(
        reconstructed_record(checkpoint.parent),
        delta_record(checkpoint, checkpoint.parent),
    )


def checkpoint_checksum(checkpoint: StoredCheckpoint) -> int:
    """CRC-32 over the (reconstructed) full content of *checkpoint*."""
    return zlib.crc32(checkpoint_payload(checkpoint))


@dataclass(frozen=True)
class StoreReceipt:
    """Outcome of one two-phase checkpoint write.

    Attributes:
        published: Whether the checkpoint became visible.
        retries: How many failed attempts preceded the outcome (used by
            the engine to charge simulated backoff time).
        torn: Whether a torn write was detected (and discarded) during
            validation.
        fault: The fault that was applied to this write, if any.
    """

    published: bool
    retries: int = 0
    torn: bool = False
    fault: StorageFaultEvent | None = None


#: Shared receipt for the fault-free store path: immutable, so every
#: successful unfaulted write can return the same instance.
_OK_RECEIPT = StoreReceipt(published=True)


class CheckpointStore:
    """Per-process checkpoint histories, hardened against storage faults.

    Each rank's history is kept in checkpoint order. Besides it the
    store tracks, per rank, a *revision* (bumped whenever the history
    gains or loses an entry) and the largest stored number, so
    consumers that cache a derived view (:class:`RetentionPolicy`) can
    tell in O(1) whether it went stale and :meth:`max_common_number`
    never rescans the entries.

    Every write goes through an atomic two-phase commit: the payload is
    *staged*, its checksum is *validated* against the intended content,
    and only then is the checkpoint *published* into the history — so a
    torn write is detected and discarded rather than published, and a
    reader can never observe a half-written checkpoint. Published
    checkpoints carry a checksum that read paths re-verify, which is
    how silent bit rot is caught. Transient write errors are retried up
    to ``max_retries`` times. The integrity machinery only changes
    behaviour when faults fire.
    """

    def __init__(self, max_retries: int = 3) -> None:
        if max_retries < 0:
            raise StorageError(f"max_retries must be >= 0, got {max_retries}")
        self._checkpoints: dict[int, list[StoredCheckpoint]] = {}
        self._revisions: dict[int, int] = {}
        self._max_numbers: dict[int, int] = {}
        self.max_retries = max_retries
        # Optional observability bus (set by the engine); all storage
        # events are published on it when present.
        self.obs = None
        # Materialised checksums, keyed by checkpoint object identity.
        # An untorn, unrotted write has no record: its checksum matches
        # the (immutable) content by construction, so the CRC is only
        # computed if rot later targets the entry. ``_touched`` is the
        # set of entries with a record on *any* replica (mirrors share
        # it): everything outside it is intact without a look-up. All
        # three drop an entry when it leaves the store (``_left``), so
        # a recycled ``id`` can never inherit a verdict.
        self._checksums: dict[int, int] = {}
        self._touched: set[int] = set()
        # Bumped by every successful ``corrupt`` on any replica: with
        # the per-rank history revisions, what can flip a verdict.
        self._integrity_revision = 0
        # Corrupt checkpoints read paths have caught (one count and one
        # ``corrupt-detected`` event per stored entry).
        self._detected: set[int] = set()
        self.corruption_detected = 0
        # Armed restore-read faults: remaining transient failures per
        # rank. Each fault-aware read of an armed rank consumes one and
        # raises; the supervisor's retry then reads through cleanly.
        self._read_faults: dict[int, int] = {}
        self.read_faults_injected = 0
        # Retention GC accounting (bumped by RetentionPolicy.collect).
        self.gc_collected = 0
        self.gc_reclaimed_bytes = 0

    # -- restore-read faults ---------------------------------------------------

    def arm_read_faults(self, rank: int, failures: int) -> None:
        """Make the next *failures* fault-aware reads of *rank* fail.

        Models transient I/O errors at restore time: the read paths
        (:meth:`latest_intact`, :meth:`intact_with_number`,
        :meth:`intact_history`) raise :class:`TransientStorageError`
        until the budget is consumed, then behave normally again.
        """
        if failures > 0:
            self._read_faults[rank] = self._read_faults.get(rank, 0) + failures

    def _maybe_read_fault(self, rank: int) -> None:
        remaining = self._read_faults.get(rank, 0)
        if remaining <= 0:
            return
        if remaining == 1:
            del self._read_faults[rank]
        else:
            self._read_faults[rank] = remaining - 1
        self.read_faults_injected += 1
        raise TransientStorageError(
            "restore read failed (injected transient I/O error)", rank=rank
        )

    # -- writes ----------------------------------------------------------------

    def store(
        self,
        checkpoint: StoredCheckpoint,
        fault: StorageFaultEvent | None = None,
    ) -> StoreReceipt:
        """Two-phase commit of *checkpoint*, optionally under *fault*.

        Returns a :class:`StoreReceipt`; the checkpoint is visible to
        readers iff ``receipt.published``. A failed or torn write
        leaves the history exactly as it was (atomicity).
        """
        if fault is None:
            # Fault-free fast path (the common case by far): publish
            # with a lazily materialised checksum and hand back the
            # shared immutable OK receipt.
            self._publish(checkpoint)
            self._emit_commit(checkpoint, retries=0)
            return _OK_RECEIPT
        kind = fault.kind
        if kind is FaultKind.WRITE_FAIL:
            # Every attempt errors; exhaust the retry budget and give up.
            self._emit("write-fail", checkpoint, retries=self.max_retries)
            return StoreReceipt(
                published=False, retries=self.max_retries, fault=fault
            )
        retries = 0
        if kind is FaultKind.TRANSIENT:
            if fault.attempts > self.max_retries:
                self._emit(
                    "write-fail", checkpoint, retries=self.max_retries
                )
                return StoreReceipt(
                    published=False, retries=self.max_retries, fault=fault
                )
            retries = fault.attempts
        if kind is FaultKind.TORN_WRITE:
            # Stage: a torn write truncates the staged *wire* bytes
            # (the delta payload for delta entries). Validate: the
            # staged bytes must checksum to the intended full content —
            # a truncated stage never can, so the tear is discarded.
            payload = stored_payload(checkpoint)
            expected = checkpoint_checksum(checkpoint)
            staged = payload[: len(payload) // 2]
            if zlib.crc32(staged) != expected:
                self._emit("torn-write", checkpoint, retries=retries)
                return StoreReceipt(
                    published=False, retries=retries, torn=True, fault=fault
                )
            self._publish(checkpoint, expected)
            self._emit_commit(checkpoint, retries=retries)
            return StoreReceipt(published=True, retries=retries, fault=fault)
        # Publish: append atomically. Checkpoint content is immutable
        # once stored (bit rot is modelled by flipping the *stored*
        # checksum, never the content), so an untorn write's checksum
        # is known-good by construction and its serialisation can be
        # deferred until rot actually targets this entry — fault-free
        # runs never pay for it.
        self._publish(checkpoint)
        self._emit_commit(checkpoint, retries=retries)
        return StoreReceipt(published=True, retries=retries, fault=fault)

    def _emit_commit(self, checkpoint: StoredCheckpoint, retries: int) -> None:
        """Commit event carrying the *stored* (wire) payload size.

        Guarded here rather than in :meth:`_emit` so the fault-free
        no-observer path never evaluates ``payload_bytes`` (which would
        size every entry on the hot-path store instead of lazily).
        """
        if self.obs is not None:
            self._emit(
                "commit", checkpoint, retries=retries,
                bytes=checkpoint.payload_bytes, tag=checkpoint.tag,
            )

    def _emit(self, name: str, checkpoint: StoredCheckpoint, **fields) -> None:
        """Publish a ``storage``-category event for *checkpoint*.

        Events are stamped at the checkpoint's own simulated time (the
        write's completion instant) and carry its rank and number; the
        bus adds the publisher's vector clock.
        """
        if self.obs is not None:
            self.obs.emit(
                "storage", name, checkpoint.rank, checkpoint.time,
                number=checkpoint.number, **fields,
            )

    def _publish(
        self, checkpoint: StoredCheckpoint, checksum: int | None = None
    ) -> None:
        """Append to the history; *checksum* ``None`` defers the CRC."""
        rank = checkpoint.rank
        self._checkpoints.setdefault(rank, []).append(checkpoint)
        self._revisions[rank] = self._revisions.get(rank, 0) + 1
        if checkpoint.number > self._max_numbers.get(rank, -1):
            self._max_numbers[rank] = checkpoint.number
        if checksum is not None:
            self._checksums[id(checkpoint)] = checksum
            self._touched.add(id(checkpoint))

    def _locate(
        self, checkpoint: StoredCheckpoint
    ) -> tuple[list[StoredCheckpoint], int]:
        """The owner's history and *checkpoint*'s position (by identity)."""
        history = self._checkpoints.get(checkpoint.rank, [])
        for position, stored in enumerate(history):
            if stored is checkpoint:
                return history, position
        raise StorageError(
            "checkpoint is not in storage",
            rank=checkpoint.rank,
            number=checkpoint.number,
        )

    def _left(self, rank: int, entries) -> None:
        """Bookkeeping once *entries* have been removed from *rank*."""
        self._revisions[rank] = self._revisions.get(rank, 0) + 1
        self._max_numbers[rank] = max(
            (c.number for c in self._checkpoints[rank]), default=-1
        )
        for checkpoint in entries:
            key = id(checkpoint)
            self._checksums.pop(key, None)
            self._touched.discard(key)
            self._detected.discard(key)

    def truncate_to(self, checkpoint: StoredCheckpoint) -> int:
        """Drop every checkpoint of the owner stored after *checkpoint*.

        Called on rollback: states from the discarded timeline never
        happened, so keeping them would let a later recovery assemble a
        cut mixing mutually exclusive timelines. Returns the number of
        dropped entries.
        """
        history, position = self._locate(checkpoint)
        dropped = history[position + 1 :]
        if dropped:
            del history[position + 1 :]
            self._left(checkpoint.rank, dropped)
        return len(dropped)

    def discard(self, checkpoint: StoredCheckpoint) -> None:
        """Remove one *checkpoint* from its owner's history (GC victim).

        Evicts an interior entry, which is what spacing-based retention
        needs. Matches by identity, like :meth:`truncate_to`.
        """
        history, position = self._locate(checkpoint)
        del history[position]
        self._left(checkpoint.rank, (checkpoint,))

    # -- plain reads -----------------------------------------------------------

    def history(self, rank: int) -> list[StoredCheckpoint]:
        """All stored checkpoints of *rank*, oldest first."""
        return list(self._checkpoints.get(rank, []))

    def latest(self, rank: int) -> StoredCheckpoint:
        """The most recent checkpoint of *rank*."""
        history = self._checkpoints.get(rank)
        if not history:
            raise StorageError("no checkpoint stored", rank=rank)
        return history[-1]

    def latest_with_number(self, rank: int, number: int) -> StoredCheckpoint:
        """The most recent checkpoint of *rank* with the given *number*.

        Rollback can make a process re-take checkpoint ``i``; the most
        recent instance reflects the surviving timeline.
        """
        for checkpoint in reversed(self._checkpoints.get(rank, [])):
            if checkpoint.number == number:
                return checkpoint
        raise StorageError(
            "rank has no checkpoint with this number", rank=rank, number=number
        )

    def latest_with_tag(self, rank: int, tag: str) -> StoredCheckpoint | None:
        """The most recent checkpoint of *rank* carrying *tag*, if any."""
        for checkpoint in reversed(self._checkpoints.get(rank, [])):
            if checkpoint.tag == tag:
                return checkpoint
        return None

    def max_common_number(self, ranks: Sequence[int]) -> int:
        """The largest ``i`` every rank has reached (0 = initial state)."""
        largest = self._max_numbers.get
        return min([largest(rank, -1) for rank in ranks], default=-1)

    def count(self, rank: int) -> int:
        """Number of checkpoints stored for *rank*."""
        return len(self._checkpoints.get(rank, []))

    def total_count(self) -> int:
        """Total stored checkpoints across all processes."""
        return sum(len(h) for h in self._checkpoints.values())

    def total_bytes(self, incremental: bool = False) -> int:
        """Cumulative checkpoint volume, full-content or as-stored.

        Both figures are structural sizes, pinned equal to the
        encoder's output (the bytes checksums and torn-write staging
        operate on) without materialising it. ``incremental=True``
        sums the durable wire forms (delta entries count their delta
        payload — the related-work feature the paper cites as [20]);
        ``incremental=False`` sums what the same history would cost
        stored entirely as full checkpoints. The two coincide unless
        delta encoding is on.
        """
        return sum(
            (c.payload_bytes if incremental else c.full_bytes)
            for history in self._checkpoints.values()
            for c in history
        )

    # -- integrity -------------------------------------------------------------

    def corrupt(
        self, rank: int, number: int | None = None, replica: int = 0
    ) -> bool:
        """Inject bit rot into a stored checkpoint of *rank*.

        Flips the stored checksum of the latest *intact* checkpoint (or
        the latest intact instance with *number*), so the next read
        catches the mismatch. Already-corrupt instances are skipped —
        rot on the same slot twice must not cancel out. Returns whether
        a checkpoint was actually corrupted.
        """
        if replica != 0:
            raise StorageError(
                "unreplicated store has only replica 0",
                rank=rank, number=number, replica=replica,
            )
        target: StoredCheckpoint | None = None
        for checkpoint in reversed(self._checkpoints.get(rank, [])):
            if number is not None and checkpoint.number != number:
                continue
            # Rot targets the entry's *own* stored record, so the scan
            # uses this copy's single-entry check — never a replicated
            # store's quorum, under which a copy already rotten here
            # would be picked again and a second flip would heal it. A
            # delta whose ancestor is already rotten is still a fresh
            # target for independent rot.
            if CheckpointStore._intact_entry(self, checkpoint):
                target = checkpoint
                break
        if target is None:
            return False
        key = id(target)
        stored = self._checksums.get(key)
        if stored is None:
            # Materialise the deferred write-time checksum now, from
            # the still-uncorrupted content, then flip it.
            stored = checkpoint_checksum(target)
        self._checksums[key] = stored ^ 0x5A5A5A5A
        self._touched.add(key)
        self._integrity_revision += 1
        return True

    def _intact_entry(self, checkpoint: StoredCheckpoint) -> bool:
        """Whether one entry's own stored checksum matches its content.

        No record means published untorn and never rotted (or never
        published here — a synthetic fixture): intact by construction.
        """
        stored = self._checksums.get(id(checkpoint))
        return stored is None or stored == checkpoint_checksum(checkpoint)

    def verify(self, checkpoint: StoredCheckpoint) -> bool:
        """Whether *checkpoint* is restorable from durable content.

        For a full entry this is the classic checksum match. A delta
        entry additionally needs every transitive ancestor intact —
        reconstruction chains through them, so rot anywhere on the
        chain makes the descendant unrestorable (read paths then
        degrade to an older entry whose chain is whole). Only links in
        the touched set are actually checked — with none touched, the
        answer is immediate.
        """
        touched = self._touched
        if not touched:
            return True
        link = checkpoint
        while link is not None:
            if id(link) in touched and not self._intact_entry(link):
                return False
            link = link.parent
        return True

    def _note_corrupt(self, checkpoint: StoredCheckpoint) -> None:
        if id(checkpoint) not in self._detected:
            # First detection of this rotten checkpoint; stamped at the
            # checkpoint's write time (rot itself is silent — detection
            # happens at whatever later read reached it).
            self._detected.add(id(checkpoint))
            self.corruption_detected += 1
            self._emit("corrupt-detected", checkpoint)

    # -- fault-aware reads -----------------------------------------------------

    def intact_with_number(
        self, rank: int, number: int
    ) -> StoredCheckpoint | None:
        """The most recent *intact* number-*number* checkpoint of *rank*.

        Corrupt instances are skipped (and counted); returns ``None``
        when the number is missing entirely or every instance is
        corrupt — the caller's cue to degrade to a shallower cut.
        """
        self._maybe_read_fault(rank)
        for checkpoint in reversed(self._checkpoints.get(rank, [])):
            if checkpoint.number != number:
                continue
            if self.verify(checkpoint):
                return checkpoint
            self._note_corrupt(checkpoint)
        return None

    def latest_intact(
        self, rank: int, skip: int = 0
    ) -> tuple[StoredCheckpoint, int]:
        """The most recent intact checkpoint of *rank*, with skip depth.

        Returns ``(checkpoint, depth)`` where *depth* counts the newer
        entries (corrupt or deliberately skipped) above the result. A
        positive *skip* asks for an *older* intact checkpoint — the
        supervisor's escalating degraded fallback — clamped to the
        oldest intact entry when the history is shallower than asked.
        """
        self._maybe_read_fault(rank)
        history = self._checkpoints.get(rank, [])
        intact: list[tuple[StoredCheckpoint, int]] = []
        for depth, checkpoint in enumerate(reversed(history)):
            if self.verify(checkpoint):
                intact.append((checkpoint, depth))
                if len(intact) > skip:
                    # Lazy scan: entries older than the answer are never
                    # verified, so their rot stays undetected (as before).
                    return intact[skip]
            else:
                self._note_corrupt(checkpoint)
        if not intact:
            raise StorageError("no intact checkpoint on storage", rank=rank)
        return intact[-1]

    def intact_history(self, rank: int) -> list[StoredCheckpoint]:
        """All intact checkpoints of *rank*, oldest first (corrupt skipped)."""
        self._maybe_read_fault(rank)
        intact = []
        for checkpoint in self._checkpoints.get(rank, []):
            if self.verify(checkpoint):
                intact.append(checkpoint)
            else:
                self._note_corrupt(checkpoint)
        return intact


class ReplicatedCheckpointStore(CheckpointStore):
    """A checkpoint store mirrored across ``replicas`` copies.

    The primary replica is this store itself; ``replicas - 1`` mirrors
    receive every published checkpoint. Integrity queries are answered
    by **majority quorum**: a checkpoint counts as intact iff at least
    ``replicas // 2 + 1`` replicas hold an uncorrupted copy, so a
    minority of rotten replicas is survivable without any fallback.
    """

    def __init__(self, replicas: int = 3, max_retries: int = 3) -> None:
        super().__init__(max_retries=max_retries)
        if replicas < 1:
            raise StorageError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._mirrors = [
            CheckpointStore(max_retries=max_retries)
            for _ in range(replicas - 1)
        ]
        for mirror in self._mirrors:
            mirror._touched = self._touched

    @property
    def quorum(self) -> int:
        """Copies that must be intact for a read to succeed."""
        return self.replicas // 2 + 1

    def _publish(
        self, checkpoint: StoredCheckpoint, checksum: int | None = None
    ) -> None:
        super()._publish(checkpoint, checksum)
        for mirror in self._mirrors:
            mirror._publish(checkpoint, checksum)

    def corrupt(
        self, rank: int, number: int | None = None, replica: int = 0
    ) -> bool:
        if replica == 0:
            return super().corrupt(rank, number=number)
        if not 1 <= replica < self.replicas:
            raise StorageError(
                f"replica out of range [0, {self.replicas})",
                rank=rank, number=number, replica=replica,
            )
        rotted = self._mirrors[replica - 1].corrupt(rank, number=number)
        if rotted:
            self._integrity_revision += 1
        return rotted

    def _intact_entry(self, checkpoint: StoredCheckpoint) -> bool:
        """Quorum read: an entry is intact iff a majority of copies are.

        Chain handling stays in the inherited :meth:`verify`, which
        calls this per link — so each ancestor needs its own quorum,
        and a minority of rotten replicas anywhere on a delta chain is
        still survivable.
        """
        if id(checkpoint) not in self._touched:
            return True
        copies = [CheckpointStore._intact_entry(self, checkpoint)]
        copies.extend(
            mirror._intact_entry(checkpoint) for mirror in self._mirrors
        )
        return sum(copies) >= self.quorum

    def truncate_to(self, checkpoint: StoredCheckpoint) -> int:
        dropped = super().truncate_to(checkpoint)
        for mirror in self._mirrors:
            mirror.truncate_to(checkpoint)
        return dropped

    def discard(self, checkpoint: StoredCheckpoint) -> None:
        super().discard(checkpoint)
        for mirror in self._mirrors:
            mirror.discard(checkpoint)


# ----------------------------------------------------------------------
# Bounded-storage retention
# ----------------------------------------------------------------------


@dataclass
class RetentionPolicy:
    """Online k-checkpoints-per-rank retention with a safe-GC invariant.

    Keeps at most ``retain_k`` checkpoints per rank, evicting the entry
    whose removal merges the *smallest* time gap between surviving
    neighbours — the greedy spacing rule from Bringmann et al. (arXiv
    1302.4216), which keeps checkpoints roughly geometrically spaced so
    a rewind to any age stays near-optimal under bounded storage.

    The GC invariant: the current recovery line — and every degraded
    fallback candidate the supervisor might escalate to, down to
    ``protect_depth`` numbers below the common number — is never
    collected. Protection is computed with :meth:`CheckpointStore.verify`
    (never a fault-aware read path), so GC cannot consume armed
    restore-read faults or perturb corruption accounting.

    Collection is change-driven: a rank left over budget because every
    entry is protected is *settled*, and is looked at again only once
    its history, the common number or any integrity verdict has moved
    (the store's revisions say so in O(1)) — nothing else can unprotect
    an entry. A commit therefore costs work on the ranks it affected,
    not a re-derivation of every rank's protected set.
    """

    retain_k: int
    protect_depth: int = 3

    def __post_init__(self) -> None:
        # The store the settled stamps describe, and per settled rank
        # its ``(history revision, common number, integrity revision)``.
        self._storage: CheckpointStore | None = None
        self._settled: dict[int, tuple[int, int, int]] = {}
        if self.retain_k < 2:
            raise StorageError(
                f"retain_k must be >= 2 (need the newest checkpoint plus "
                f"a recovery floor), got {self.retain_k}"
            )
        if self.protect_depth < 0:
            raise StorageError(
                f"protect_depth must be >= 0, got {self.protect_depth}"
            )

    def collect(
        self, storage: CheckpointStore, ranks: Sequence[int]
    ) -> tuple[int, int]:
        """Evict down to ``retain_k`` per rank; ``(collected, bytes)``.

        Corrupt entries are evicted first (they can never serve a
        restore); then unprotected interior entries by the merged-gap
        rule. Stops early for a rank when only protected entries remain,
        so occupancy may transiently exceed ``retain_k`` rather than
        break recoverability.
        """
        if storage is not self._storage:
            self._storage, self._settled = storage, {}
        collected = 0
        reclaimed = 0
        common = storage.max_common_number(ranks)
        integrity = storage._integrity_revision
        for rank in ranks:
            history = storage._checkpoints.get(rank, ())
            if len(history) <= self.retain_k or self._settled.get(rank) == (
                storage._revisions[rank], common, integrity
            ):
                continue
            kept, rotten = self._protected(storage, history, common)
            protected = kept | _chain_ancestors(history)
            while len(history) > self.retain_k:
                victim = _next_victim(history, protected, rotten)
                if victim is None:
                    self._settled[rank] = (
                        storage._revisions[rank], common, integrity
                    )
                    break
                storage.discard(victim)
                # Evicting an unprotected entry changes no verdict and
                # none of the kept roles; only a delta victim's chain
                # may unlock (tails go first, then their parents).
                if victim.parent is not None:
                    protected = kept | _chain_ancestors(history)
                collected += 1
                # Reclaimed space is the durable wire form the entry
                # actually occupied (its delta payload, if encoded so).
                reclaimed += victim.payload_bytes
                storage._emit("gc", victim, bytes=victim.payload_bytes)
        storage.gc_collected += collected
        storage.gc_reclaimed_bytes += reclaimed
        return collected, reclaimed

    def _protected(
        self,
        storage: CheckpointStore,
        history: list[StoredCheckpoint],
        common: int,
    ) -> tuple[set[int], set[int]]:
        """``(kept, rotten)`` identities for one rank's history.

        *rotten* are the entries that fail :meth:`~CheckpointStore.
        verify`; *kept* the ones GC must never touch for the role they
        play. Neither changes while unprotected entries are evicted.
        """
        rotten = {id(c) for c in history if not storage.verify(c)}
        intact = [c for c in history if id(c) not in rotten]
        # The newest entry: the forward-progress frontier.
        kept = {id(history[-1])}
        if intact:
            # The deepest and latest intact entries: the recovery floor
            # and the preferred restore target of single-rank protocols.
            kept.update((id(intact[0]), id(intact[-1])))
            # The straight-cut candidates: the most recent intact
            # instance of every number the degraded fallback might
            # target (a later instance overwrites an earlier one).
            floor = common - self.protect_depth
            kept.update({
                c.number: id(c) for c in intact
                if floor <= c.number <= common
            }.values())
        return kept, rotten


def _chain_ancestors(history: list[StoredCheckpoint]) -> set[int]:
    """Identities of every transitive delta parent of a stored entry.

    Evicting a parent would strand every descendant's reconstruction,
    so these are off-limits to GC; :data:`DELTA_CHAIN_CAP` bounds how
    much occupancy they can pin.
    """
    return {
        id(ancestor)
        for checkpoint in history if checkpoint.parent is not None
        for ancestor in checkpoint.delta_ancestors
    }


def _next_victim(
    history: list[StoredCheckpoint], protected: set[int], rotten: set[int]
) -> StoredCheckpoint | None:
    """The unprotected entry to evict next, or ``None`` if there is none.

    The oldest unprotected rotten entry if any; otherwise the entry
    merging the smallest time gap between its neighbours (oldest wins
    ties — deterministic).
    """
    best = None
    best_gap = None
    last = len(history) - 1
    for position, checkpoint in enumerate(history):
        if id(checkpoint) in protected:
            continue
        if id(checkpoint) in rotten:
            return checkpoint
        before = history[position - 1].time if position > 0 \
            else checkpoint.time
        after = history[position + 1].time if position < last \
            else checkpoint.time
        gap = after - before
        if best_gap is None or gap < best_gap:
            best, best_gap = checkpoint, gap
    return best
