"""Recovery: the supervisor that retries a crash's restore, and the
restores themselves — every rank to a recovery line, or one rank
replaying its logged messages."""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.causality.records import EventKind
from repro.errors import (
    NestedFailureError,
    RecoveryControlError,
    RecoveryError,
    StorageError,
    TransientStorageError,
    UnrecoverableError,
)
from repro.runtime.failures import RecoveryFaultEvent, RecoveryFaultKind
from repro.runtime.scheduler import _Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.storage import StoredCheckpoint

#: Recovery attempts per crash before the supervisor declares the rank
#: unrecoverable. Attempt ``k`` asks for a cut ``k - 1`` numbers below
#: the nominal recovery line, so retention protects that many fallback
#: candidates below it.
MAX_RECOVERY_ATTEMPTS = 4
#: Simulated seconds charged before attempt ``k + 1``:
#: ``RECOVERY_BACKOFF_BASE * RECOVERY_BACKOFF_FACTOR ** (k - 1)``.
RECOVERY_BACKOFF_BASE = 0.5
RECOVERY_BACKOFF_FACTOR = 2.0


class RecoverySupervisor:
    """Drives every protocol recovery with bounded retry + backoff.

    The engine routes each crash's ``on_failure`` through
    :meth:`recover`, which (1) injects the failure plan's
    recovery-scoped faults — nested crashes and lost control traffic
    interrupt the restore itself, restore-read faults are armed on the
    store — keyed by **recovery operation index** (the 0-based count of
    crash-triggered recoveries) so plans stay replayable even though
    backoff shifts absolute times; (2) retries retryable failures
    (:class:`NestedFailureError`, :class:`RecoveryControlError`,
    :class:`TransientStorageError`) up to :data:`MAX_RECOVERY_ATTEMPTS`
    times with exponential backoff charged to the simulated clock;
    (3) escalates the degraded fallback one recovery line deeper per
    retry; and (4) converts exhaustion — or a terminal storage state —
    into a clean :class:`UnrecoverableError` verdict that
    :meth:`~repro.runtime.engine.Simulation.run` absorbs into a result
    whose ``stats.unrecoverable`` is set.

    Protocol-bug errors (a plain :class:`RecoveryError` such as "not a
    recovery line") are **not** retried and propagate unchanged.
    """

    def __init__(
        self,
        sim: "Recovery",
        recovery_faults: list[RecoveryFaultEvent],
    ) -> None:
        # Weak: the simulation owns its supervisor, and a strong link
        # back would leave every finished run to the cyclic collector.
        self._sim = weakref.ref(sim)
        self._by_recovery: dict[int, list[RecoveryFaultEvent]] = {}
        for fault in recovery_faults:
            self._by_recovery.setdefault(fault.recovery, []).append(fault)
        self.recovery_index = 0
        # Extra fallback depth the current attempt asks protocols for
        # (read via Simulation.recovery_escalation).
        self.escalation = 0
        # The disruption armed against the next restore, if any.
        self._pending: RecoveryFaultEvent | None = None
        # Deterministic id sequence for recovery.attempt span events.
        self._span_seq = 0

    @property
    def sim(self) -> "Recovery":
        """The simulation this supervisor drives recoveries for."""
        return self._sim()

    def _emit_attempt_span(
        self, rank: int, start: float, end: float, attempt: int, outcome: str
    ) -> None:
        """Publish one recovery attempt as a ``span`` event.

        Emitted on the simulation's bus with **simulated** times only
        (start of the attempt; duration covers the backoff it charged),
        so span records are as replayable as every other engine event.
        """
        sim = self.sim
        if sim.obs is None:
            return
        span_id = self._span_seq
        self._span_seq += 1
        sim.obs.emit(
            "span", "recovery.attempt", rank, start,
            span_id=span_id, parent=None, dur=end - start,
            attempt=attempt, outcome=outcome,
        )

    def recover(self, rank: int, time: float) -> None:
        """Run the protocol's recovery for a crash of *rank* at *time*."""
        sim = self.sim
        index = self.recovery_index
        self.recovery_index += 1
        queue: list[RecoveryFaultEvent] = []
        for fault in self._by_recovery.get(index, []):
            if fault.kind is RecoveryFaultKind.READ_FAULT:
                sim.storage.arm_read_faults(fault.rank, fault.attempts)
            else:
                # Validation sorted faults with crash-in-recovery ahead
                # of control-lost, so nested crashes disrupt first.
                queue.extend([fault] * fault.attempts)
        now = time
        attempt = 0
        cause: Exception | None = None
        while attempt < MAX_RECOVERY_ATTEMPTS:
            attempt += 1
            sim.stats.recovery_attempts += 1
            self.escalation = attempt - 1
            if self._pending is None and queue:
                self._pending = queue.pop(0)
            start = now
            try:
                sim.protocol.on_failure(sim, rank, now)
                # A retried error's traceback holds this frame and its
                # callers' (whose locals are the whole simulation):
                # keeping it past success would leave a cycle to gen-2.
                cause = None
                self._emit_attempt_span(rank, start, now, attempt, "ok")
                return
            except (
                NestedFailureError,
                RecoveryControlError,
                TransientStorageError,
            ) as error:
                cause = error
                sim.stats.recovery_retries += 1
                backoff = RECOVERY_BACKOFF_BASE * (
                    RECOVERY_BACKOFF_FACTOR ** (attempt - 1)
                )
                sim.stats.recovery_backoff_time += backoff
                if sim.obs is not None:
                    sim.obs.emit(
                        "engine", "recovery-retry", rank, now,
                        attempt=attempt, backoff=backoff, cause=str(error),
                    )
                now += backoff
                self._emit_attempt_span(rank, start, now, attempt, "retry")
            except UnrecoverableError as error:
                self._emit_attempt_span(
                    rank, start, now, attempt, "unrecoverable"
                )
                self._give_up(rank, attempt, error, now)
            except StorageError as error:
                # Non-transient storage failure at restore time: no
                # intact state is reachable, retrying cannot help.
                self._emit_attempt_span(
                    rank, start, now, attempt, "unrecoverable"
                )
                self._give_up(rank, attempt, error, now)
            finally:
                self.escalation = 0
                self._pending = None
        self._give_up(rank, attempt, cause, now)

    def interrupt_restore(self, at_time: float) -> None:
        """Fire the armed mid-restore disruption, if one is pending.

        Called by the engine at the top of every restore, before any
        state is mutated — so an interrupted attempt aborts atomically
        and the supervisor can simply re-drive it.
        """
        fault = self._pending
        if fault is None:
            return
        self._pending = None
        sim = self.sim
        if fault.kind is RecoveryFaultKind.CRASH:
            sim.stats.nested_crashes += 1
            if sim.obs is not None:
                sim.obs.emit(
                    "engine", "nested-crash", fault.rank, at_time,
                    recovery=fault.recovery,
                )
            raise NestedFailureError(
                f"rank {fault.rank} crashed again while recovery "
                f"{fault.recovery} was restoring"
            )
        sim.stats.recovery_control_lost += 1
        if sim.obs is not None:
            sim.obs.emit(
                "engine", "control-lost", fault.rank, at_time,
                recovery=fault.recovery,
            )
        raise RecoveryControlError(
            f"recovery control traffic lost while recovery "
            f"{fault.recovery} was restoring (rank {fault.rank})"
        )

    def _give_up(
        self, rank: int, attempt: int, cause: Exception | None, now: float
    ) -> None:
        sim = self.sim
        if sim.obs is not None:
            sim.obs.emit(
                "engine", "unrecoverable", rank, now,
                attempts=attempt, cause=str(cause),
            )
        raise UnrecoverableError(
            f"rank {rank} is unrecoverable after {attempt} attempt(s): "
            f"{cause}"
        ) from cause


class Recovery:
    """The restores protocols call, and the supervisor around them."""

    def _init_recovery(self, plan) -> None:
        self.supervisor = RecoverySupervisor(self, list(plan.recovery_faults))

    @property
    def recovery_escalation(self) -> int:
        """Extra fallback depth the current recovery attempt asks for."""
        return self.supervisor.escalation

    def record_fallback(self, depth: int) -> None:
        """Account one restore that fell *depth* checkpoints below the
        nominal recovery line (0: it restored the line itself)."""
        self.stats.fallback_depths.append(depth)
        if depth:
            self.stats.recovery_fallbacks += 1

    def restore_cut(
        self, cut: dict[int, StoredCheckpoint], at_time: float
    ) -> None:
        """Roll every process back to its checkpoint in *cut*.

        Channels are rewound exactly: the sender-side ``sent`` cursor
        and receiver-side ``delivered`` cursor of each channel come from
        the respective processes' checkpoints, and the surviving middle
        segment (in-flight across the cut) is re-queued.
        """
        self.supervisor.interrupt_restore(at_time)
        if set(cut) != set(range(self.n)):
            raise RecoveryError("restore_cut needs one checkpoint per process")
        self._refuse_corrupt(cut.values())
        cursors: dict[tuple[int, int, str], tuple[int, int]] = {}
        for rank, checkpoint in cut.items():
            for key, (sent, delivered) in checkpoint.channel_cursors.items():
                src, dst, _ = key
                old_sent, old_delivered = cursors.get(key, (0, 0))
                if src == rank:
                    cursors[key] = (sent, old_delivered)
                    old_sent = sent
                if dst == rank:
                    cursors[key] = (old_sent, delivered)
        restart = at_time + self.costs.recovery_overhead
        self.network.rollback(cursors, restart)
        self._restart(cut.values(), restart)
        # Rollback rebased channel arrivals and reset every process:
        # all outstanding scheduling keys are stale — rebuild the index.
        self._resync()
        if self.obs is not None:
            self.obs.emit(
                "engine", "rollback", None, restart,
                restored={
                    str(rank): cut[rank].number for rank in sorted(cut)
                },
            )

    def restore_single(
        self, checkpoint: StoredCheckpoint, at_time: float
    ) -> None:
        """Log-based recovery: restart ONE process from *checkpoint*.

        Survivors keep running untouched. The recovering process
        re-reads the messages it had consumed since the checkpoint from
        the channel logs (receiver-based message logging), and its
        re-executed sends are suppressed as duplicates by the network's
        replay cursors. Deterministic replay brings it back to its
        pre-crash state without any rollback of other processes.
        """
        self.supervisor.interrupt_restore(at_time)
        self._refuse_corrupt([checkpoint])
        rank = checkpoint.rank
        restart = at_time + self.costs.recovery_overhead
        self.network.replay_for_rank(
            rank, checkpoint.channel_cursors, restart
        )
        self._restart([checkpoint], restart)
        self._reschedule(rank)
        if self.obs is not None:
            self.obs.emit(
                "engine", "single-restart", rank, restart,
                checkpoint_number=checkpoint.number,
            )

    def _restart(self, checkpoints, restart: float) -> None:
        """Put each checkpoint's rank back at it, to resume at *restart*.

        Entries stored after a restore point (stale under a degraded
        restart, corrupt, or both) are dropped: they would let a later
        recovery assemble a cut mixing the restored timeline with the
        discarded one.
        """
        for checkpoint in checkpoints:
            rank = checkpoint.rank
            proc = self.procs[rank]
            self.stats.lost_work += max(0.0, proc.clock - checkpoint.time)
            self._rewind_commits(checkpoint)
            proc.interp.restore(checkpoint.snapshot)
            proc.clock = restart
            proc.paused = False
            proc.held_error = None
            if checkpoint.snapshot.pending_recv is not None:
                proc.status = _Status.BLOCKED
                proc.blocked_effect = checkpoint.blocked_effect
                if proc.blocked_effect is None:
                    raise RecoveryError(
                        f"rank {rank} snapshot is mid-receive but the "
                        "checkpoint stored no blocked effect"
                    )
            else:
                proc.status = _Status.READY
                proc.blocked_effect = None
            self.trace.append(
                EventKind.RESTART, rank, restart,
                self._tick(rank, checkpoint.clock),
                checkpoint_number=checkpoint.number,
            )
        self.stats.rollbacks += 1
        self._recount_done()

    def _refuse_corrupt(self, checkpoints) -> None:
        """A corrupt checkpoint must never be restored — fail loudly.

        Recovery paths are expected to have already degraded around
        corruption; reaching here with a bad checksum is a protocol
        bug, and restoring silently would resurrect rotten state.
        """
        for checkpoint in checkpoints:
            if not self.storage.verify(checkpoint):
                raise RecoveryError(
                    f"refusing to restore corrupt checkpoint "
                    f"{checkpoint.number} of rank {checkpoint.rank} "
                    "(checksum mismatch)"
                )
