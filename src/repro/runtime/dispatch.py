"""Dispatch: what one scheduled item does — a process's next effect
(charged in simulated time, its messages routed and stamped with vector
clocks, its trace events recorded), a crash, or a bit-rot event."""

from __future__ import annotations

from repro.causality.records import EventKind
from repro.causality.vector_clock import VectorClock
from repro.errors import RecoveryError, SimulationError
from repro.runtime.effects import (
    BcastRecvEffect,
    BcastSendEffect,
    CheckpointEffect,
    ComputeEffect,
    Effect,
    LocalEffect,
    RecvEffect,
    SendEffect,
)
from repro.runtime.failures import StorageFaultEvent
from repro.runtime.hooks import ProtocolHooks
from repro.runtime.scheduler import _Proc, _Status


class Dispatch:
    """Process effects, message delivery, crashes and bit rot."""

    def _init_dispatch(self, config) -> None:
        self.record_compute_events = config.record_compute_events
        # The base piggyback hook returns {} and has no side effects, so
        # sends can skip the call (and the empty-dict copy in the
        # network layer) unless the protocol overrides it.
        protocol = type(self.protocol)
        self._has_piggyback = protocol.piggyback is not ProtocolHooks.piggyback
        self._sees_app_messages = (
            protocol.on_app_message is not ProtocolHooks.on_app_message
        )
        self._clocks = [VectorClock.zero(self.n) for _ in range(self.n)]
        if self.obs is not None:
            self.obs.bind_clocks(self._clocks)
        self._message_clocks: dict[int, VectorClock] = {}

    def _execute_process(self, proc: _Proc) -> None:
        if proc.status is _Status.BLOCKED:
            self._complete_receive(proc)
            return
        if proc.held_error is not None:
            error, proc.held_error = proc.held_error, None
            raise error
        effect = proc.interp.step()
        if effect is None:
            self._finish(proc)
            return
        self._perform(proc, effect)

    def _perform(self, proc: _Proc, effect: Effect) -> None:
        # Exact-type dispatch, ordered by observed frequency: effects are
        # closed-world frozen dataclasses, so an identity check on the
        # class beats an isinstance() chain on the hottest path in the
        # engine.
        costs = self.costs
        cls = effect.__class__
        if cls is LocalEffect:
            proc.clock += costs.local_statement
            return
        if cls is SendEffect:
            proc.clock += costs.send_overhead
            self._send_app_message(
                proc, effect.dest, effect.value, "p2p",
                stmt_id=effect.stmt.node_id,
            )
            return
        if cls is RecvEffect or cls is BcastRecvEffect:
            proc.status = _Status.BLOCKED
            proc.blocked_effect = effect
            head = self._awaited_message(proc)
            if head is not None and head.arrival_time <= proc.clock:
                self._complete_receive(proc)
            return
        if cls is ComputeEffect:
            proc.clock += effect.cost * costs.compute_unit
            if self.record_compute_events:
                self.trace.append(
                    EventKind.COMPUTE, proc.rank, proc.clock, self._tick(proc.rank)
                )
            return
        if cls is CheckpointEffect:
            proc.clock += costs.checkpoint_overhead
            stored = self._store_checkpoint(
                proc,
                stmt_id=effect.stmt.node_id,
                tag="app",
                time=proc.clock,
            )
            self.stats.checkpoints += 1
            if stored is not None:
                self.protocol.on_checkpoint(
                    self, proc.rank, proc.interp.checkpoint_count
                )
            return
        if cls is BcastSendEffect:
            for dst in range(self.n):
                if dst == proc.rank:
                    continue
                proc.clock += costs.send_overhead
                self._send_app_message(
                    proc, dst, effect.value, "coll",
                    stmt_id=effect.stmt.node_id,
                )
            return
        raise SimulationError(f"unknown effect {effect!r}")

    def _send_app_message(
        self, proc: _Proc, dst: int, value: int, lane: str,
        stmt_id: int | None = None,
    ) -> None:
        rank = proc.rank
        piggyback = (
            self.protocol.piggyback(self, rank)
            if self._has_piggyback else None
        )
        clocks = self._clocks
        clock = clocks[rank] = clocks[rank].tick(rank)
        message = self.network.send(
            rank, dst, value, proc.clock, lane=lane, piggyback=piggyback
        )
        self._message_clocks[message.message_id] = clock
        self.trace.append(
            EventKind.SEND,
            rank,
            proc.clock,
            clock,
            message_id=message.message_id,
            peer=dst,
            stmt_id=stmt_id,
        )
        self.stats.app_messages += 1

    def _complete_receive(self, proc: _Proc) -> None:
        effect = proc.blocked_effect
        cls = effect.__class__
        if cls is RecvEffect:
            src, lane = effect.source, "p2p"
        elif cls is BcastRecvEffect:
            src, lane = effect.root, "coll"
        else:
            raise SimulationError(f"corrupt blocked effect on rank {proc.rank}")
        rank = proc.rank
        if self._sees_app_messages:
            head = self.network.peek(src, rank, lane)
            if head is None:
                raise SimulationError(
                    f"rank {rank} scheduled to receive but channel is empty"
                )
            self.protocol.on_app_message(self, rank, head)
            message = self.network.consume(src, rank, lane)
        else:
            # No protocol hook between peek and consume: use the fused
            # single-lookup pop.
            message = self.network.pop(src, rank, lane)
            if message is None:
                raise SimulationError(
                    f"rank {rank} scheduled to receive but channel is empty"
                )
        proc.clock = max(proc.clock, message.arrival_time) + self.costs.recv_overhead
        sender_clock = self._message_clocks.get(message.message_id)
        clocks = self._clocks
        if sender_clock is not None:
            clock = clocks[rank].receive(sender_clock, rank)
        else:
            clock = clocks[rank].tick(rank)
        clocks[rank] = clock
        proc.interp.deliver(message.value)
        proc.status = _Status.READY
        proc.blocked_effect = None
        self.trace.append(
            EventKind.RECV,
            rank,
            proc.clock,
            clock,
            message_id=message.message_id,
            peer=src,
            stmt_id=effect.stmt.node_id,
        )

    def _apply_storage_fault(
        self, fault: StorageFaultEvent, time: float
    ) -> None:
        """Fire a scheduled bit-rot event: corrupt a stored checkpoint.

        Silent by construction — nothing advances any process clock and
        no trace event is recorded, so detection can only happen at
        read (recovery) time, via checksums.
        """
        if self.storage.corrupt(
            fault.rank, number=fault.number, replica=fault.replica
        ):
            self.stats.bit_rot_injected += 1
            if self.obs is not None:
                self.obs.emit(
                    "storage", "bit-rot", fault.rank, time,
                    number=fault.number, replica=fault.replica,
                )

    def _apply_crash(self, crash, time: float) -> None:
        proc = self.procs[crash.rank]
        if proc.status is _Status.DONE:
            return
        self.stats.failures += 1
        proc.status = _Status.CRASHED
        proc.blocked_effect = None
        self._reschedule(proc.rank)
        self.trace.append(
            EventKind.FAILURE, proc.rank, time, self._tick(proc.rank)
        )
        self.supervisor.recover(proc.rank, time)
        if proc.status is _Status.CRASHED:
            raise RecoveryError(
                f"protocol {self.protocol.name!r} left rank {proc.rank} "
                "crashed with no recovery"
            )

    def _tick(self, rank: int, base: VectorClock | None = None) -> VectorClock:
        """Count one event of *rank* on its vector clock — or on *base*,
        the clock a restore puts back — and return the new clock."""
        if base is None:
            base = self._clocks[rank]
        clock = self._clocks[rank] = base.tick(rank)
        return clock
