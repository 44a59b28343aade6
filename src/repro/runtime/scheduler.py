"""Scheduling: which actionable item the engine dispatches next.

The engine always dispatches the globally earliest actionable item — a
runnable process (at its local clock), a blocked process whose awaited
message has arrived, a control-message arrival, a timer, a bit-rot
event or a crash — which yields a causally consistent interleaving: an
item executed at time ``t`` can only be affected by items at times
``<= t``.

The items sit in one heap keyed ``(time, priority, tiebreak,
push_seq)`` with lazy invalidation. Process entries carry a per-rank
version; any state change bumps the version and pushes a fresh entry,
so stale entries are discarded on pop. Blocked processes whose channel
is empty hold no entry at all — the network's arrival notification
re-indexes them — so a step costs O(log n) instead of a scan of every
process, control message, and timer. The tiebreaks replicate the
first-considered-wins order of that scan exactly: control messages by
send order, timers by creation order, processes by rank; classes at
equal times resolve by priority. Bit rot (-1) sorts ahead of a
same-instant crash (0): the most adversarial interleaving corrupts
storage first, so the crash's recovery must already cope with it. The
scan itself lives on in the tests as the differential oracle
``ReferenceSchedulerSimulation``.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import DeadlockError, SimulationError
from repro.runtime.effects import BcastRecvEffect, Effect, RecvEffect
from repro.runtime.hooks import ControlMessage, ProtocolHooks
from repro.runtime.network import Message

if TYPE_CHECKING:
    from repro.lang.compile import CompiledProcess

_INF = float("inf")


class _Status:
    READY = "ready"
    BLOCKED = "blocked"
    CRASHED = "crashed"
    DONE = "done"


@dataclass
class _Proc:
    rank: int
    # The rank's backend process: a CompiledProcess, or the reference
    # interpreter, which has the same surface (repro.runtime.effects).
    interp: CompiledProcess
    clock: float = 0.0
    status: str = _Status.READY
    blocked_effect: Effect | None = None
    paused: bool = False
    # Bound ``interp.step_local`` when the backend provides one (the
    # compiled backend's pure-local fast path), else None. Cached here
    # because the run loop would otherwise getattr() per dispatch; the
    # interp object lives for the whole simulation (recovery restores
    # state in place), so the bound method can never go stale.
    fast_local: object = None
    # What a statement executed ahead of the rank's turn raised; it
    # surfaces when the rank is dispatched (see Scheduler._run_ahead).
    held_error: Exception | None = None


class Scheduler:
    """The run loop, its heap, and the scheduling services of protocols."""

    #: Whether the run loop keeps executing the scheduler minimum
    #: without a heap round trip per effect (see :meth:`_loop`). A
    #: subclass whose scheduler keeps no heap must turn it off.
    _batch_dispatch = True

    def _init_scheduler(self, config, plan) -> None:
        self._max_steps = config.max_steps
        # A protocol that reacts to neither control messages nor timers
        # cannot act on a rank between that rank's own effects, which is
        # what lets the run loop execute local statements ahead of time.
        protocol = type(self.protocol)
        self._coordination_free = (
            protocol.on_control is ProtocolHooks.on_control
            and protocol.on_timer is ProtocolHooks.on_timer
        )
        self._control_queue: list[ControlMessage] = []
        self._timers: list[tuple[float, int, int, str]] = []
        self._timer_seq = 0
        self._crashes = list(plan.effective())
        # Bit rot fires through the event loop, sorted by (time, rank).
        self._rot_events = plan.rot_events()
        # The index: a single priority queue of actionable items, plus
        # channel waiters so blocked receivers are woken by arrival
        # notifications instead of being polled every step.
        self._heap: list[tuple] = []
        self._push_seq = 0
        self._proc_version = [0] * self.n
        self._waiters: dict[tuple[int, int, str], int] = {}
        self._ctl_seqs: dict[int, int] = {}
        self._ctl_seq = 0
        self._n_done = 0
        self.network.on_enqueue = self._arrival_notifier()

    # -- services used by protocols ----------------------------------------------

    def send_control(
        self, src: int, dst: int, tag: str, data: dict[str, int], now: float
    ) -> None:
        """Send a protocol control message; counted in the stats."""
        message = ControlMessage(
            src=src,
            dst=dst,
            tag=tag,
            data=dict(data),
            send_time=now,
            arrival_time=now + self.costs.control_latency,
        )
        self._control_queue.append(message)
        seq = self._ctl_seq
        self._ctl_seq += 1
        self._ctl_seqs[id(message)] = seq
        self._push(message.arrival_time, 1, seq, "ctl", message)
        self.stats.control_messages += 1
        self.emit("control-send", src, now, dst=dst, tag=tag)

    def schedule_timer(self, rank: int, time: float, tag: str) -> None:
        """Fire ``on_timer(rank, tag)`` at the given simulation time."""
        timer = (time, self._timer_seq, rank, tag)
        self._timers.append(timer)
        self._timer_seq += 1
        self._push(time, 2, timer[1], "timer", timer)

    def pause(self, rank: int) -> None:
        """Hold *rank* (it will not execute effects until resumed)."""
        self.procs[rank].paused = True
        self._reschedule(rank)

    def resume(self, rank: int, at_time: float) -> None:
        """Release *rank*; its clock advances to at least *at_time*."""
        proc = self.procs[rank]
        proc.paused = False
        proc.clock = max(proc.clock, at_time)
        self._reschedule(rank)

    # -- the run loop ------------------------------------------------------------

    def _loop(self) -> None:
        """Dispatch the scheduler minimum until every process is done."""
        batch = self._batch_dispatch
        _READY = _Status.READY
        next_item = self._next_item
        # Loop invariants of the batching fast path, hoisted: these
        # objects are mutated in place but never rebound during a run
        # (``_resync`` clears the heap rather than replacing it).
        heap = self._heap
        stats = self.stats
        max_steps = self._max_steps
        crashes = self._crashes
        rots = self._rot_events
        local_cost = self.costs.local_statement
        while True:
            if self._n_done == self.n:
                break
            stats.steps += 1
            if stats.steps > max_steps:
                raise self._over_budget()
            item = next_item()
            if item is None:
                if self._n_done == self.n:
                    break
                blocked = tuple(
                    p.rank for p in self.procs
                    if p.status is _Status.BLOCKED
                )
                raise DeadlockError(
                    "no actionable item but processes remain "
                    f"(blocked: {blocked})",
                    blocked=blocked,
                )
            time, priority, payload = item
            if priority == 3:
                # Process execution is by far the most common
                # dispatch; test for it first.
                self._execute_process(payload)
                if batch:
                    # Hot-process fast path: keep executing this
                    # process while it is provably still the strict
                    # scheduler minimum, skipping the heap round
                    # trip per effect. The heap plus the fault-event
                    # heads are a conservative lower bound on every
                    # other actionable item (stale entries only ever
                    # carry earlier times), so the check can only
                    # end a run early, never reorder dispatches —
                    # the dispatch sequence (and stats.steps) is
                    # byte-identical to the unbatched loop.
                    proc = payload
                    rank = proc.rank
                    # The crash/rot schedules only mutate at their
                    # own dispatches (priorities 0/-1), never inside
                    # a process batch, so their heads can be hoisted.
                    bound = crashes[0].time if crashes else _INF
                    if rots and rots[0].time < bound:
                        bound = rots[0].time
                    # Pure-local statements skip the step()/Effect/
                    # _perform round trip entirely: step_local()
                    # executes exactly one statement and the loop
                    # below applies the same clock/step accounting
                    # _perform's LocalEffect branch would have.
                    fast_local = proc.fast_local
                    while proc.status is _READY and not proc.paused:
                        clock = proc.clock
                        if bound <= clock:
                            break
                        if heap:
                            top = heap[0]
                            t0 = top[0]
                            if t0 < clock or (
                                t0 == clock
                                and (
                                    top[1] < 3
                                    or (top[1] == 3 and top[2] <= rank)
                                )
                            ):
                                if (
                                    fast_local is not None
                                    and self._coordination_free
                                    and not self._control_queue
                                    and not self._timers
                                ):
                                    self._run_ahead(proc, bound)
                                break
                        stats.steps += 1
                        if stats.steps > max_steps:
                            raise self._over_budget()
                        if fast_local is not None and fast_local():
                            proc.clock = clock + local_cost
                            continue
                        self._execute_process(proc)
                self._reschedule(payload.rank)
            elif priority == -1:
                rots.remove(payload)
                self._apply_storage_fault(payload, time)
            elif priority == 0:
                crashes.pop(0)
                self._apply_crash(payload, time)
            elif priority == 1:
                self._control_queue.remove(payload)
                self._ctl_seqs.pop(id(payload), None)
                self.emit(
                    "control-recv", payload.dst, payload.arrival_time,
                    src=payload.src, tag=payload.tag,
                )
                self.protocol.on_control(self, payload)
            elif priority == 2:
                self._timers.remove(payload)
                self.emit("timer", payload[2], payload[0], tag=payload[3])
                self.protocol.on_timer(
                    self, payload[2], payload[3], payload[0]
                )

    def _finish(self, proc: _Proc) -> None:
        """Retire *proc*, whose program has run to its end."""
        proc.status = _Status.DONE
        self._n_done += 1

    def _recount_done(self) -> None:
        """Recount the finished ranks after a restore reset some."""
        self._n_done = sum(p.status is _Status.DONE for p in self.procs)

    def _over_budget(self) -> SimulationError:
        return SimulationError(
            f"step budget exceeded ({self._max_steps}); "
            "likely a livelock or a runaway failure plan"
        )

    def _run_ahead(self, proc: _Proc, bound: float) -> None:
        """Run *proc*'s pure-local statements ahead of the scheduler minimum.

        Legal only under a coordination-free protocol with no control
        message or timer outstanding: nothing can then read or change
        this rank's state before its own next send, receive, checkpoint
        or compute, so its local statements up to that point may run now
        instead of taking one heap round trip each. The run stops where
        the strict-minimum loop would have stopped the rank too — at
        *bound* (the next crash or bit-rot time) — or at the first
        statement that is not pure-local, whose staged effect is
        dispatched from the heap at ``(clock, 3, rank)`` like any
        other, so every visible action keeps its order. A statement
        that raises is held back to that same turn: ranks with earlier
        turns must get to fail first.
        """
        step_local = proc.fast_local
        stats = self.stats
        cost = self.costs.local_statement
        max_steps = self._max_steps
        clock = proc.clock
        while clock < bound:
            try:
                if not step_local():
                    break
            except Exception as error:  # re-raised by _execute_process
                proc.held_error = error
                break
            clock += cost
            stats.steps += 1
            if stats.steps > max_steps:
                raise self._over_budget()
        proc.clock = clock

    # -- the index ---------------------------------------------------------------

    def _next_item(self) -> tuple[float, int, object] | None:
        resynced = False
        heap = self._heap
        heappop = heapq.heappop
        proc_version = self._proc_version
        while True:
            # Pop until a live entry surfaces (lazy invalidation).
            entry = None
            while heap:
                candidate = heappop(heap)
                if (
                    candidate[4] == "proc"
                    and candidate[6] != proc_version[candidate[2]]
                ):
                    continue
                entry = candidate
                break
            best: tuple[float, int, object] | None = None
            if self._rot_events:
                rot = self._rot_events[0]
                best = (rot.time, -1, rot)
            if self._crashes:
                crash = self._crashes[0]
                if best is None or (crash.time, 0) < (best[0], best[1]):
                    best = (crash.time, 0, crash)
            if entry is not None:
                if best is None or (entry[0], entry[1]) < (best[0], best[1]):
                    return (entry[0], entry[1], entry[5])
                heapq.heappush(self._heap, entry)
            if best is not None:
                return best
            if resynced:
                return None
            # Nothing indexed as actionable. Rebuild once from scratch
            # before declaring deadlock — a defensive resync, so a missed
            # wakeup can never alter simulation outcomes.
            self._resync()
            resynced = True

    def _push(
        self, time: float, priority: int, tiebreak: int, kind: str,
        payload: object, version: int | None = None,
    ) -> None:
        self._push_seq += 1
        heapq.heappush(
            self._heap,
            (time, priority, tiebreak, self._push_seq, kind, payload, version),
        )

    def _reschedule(self, rank: int) -> None:
        """Re-key one process after any scheduling-relevant state change.

        Bumps the rank's version (invalidating every outstanding entry)
        and pushes a fresh entry if the process is actionable: READY at
        its local clock, or BLOCKED behind a non-empty channel at the
        head's arrival. A BLOCKED process on an empty channel registers
        a channel waiter instead and is re-indexed on arrival.
        """
        version = self._proc_version[rank] + 1
        self._proc_version[rank] = version
        proc = self.procs[rank]
        if proc.paused:
            return
        status = proc.status
        if status is _Status.READY:
            self._push_seq += 1
            heapq.heappush(
                self._heap,
                (proc.clock, 3, rank, self._push_seq, "proc", proc, version),
            )
        elif status is _Status.BLOCKED:
            head = self._awaited_message(proc)
            if head is None:
                effect = proc.blocked_effect
                if isinstance(effect, RecvEffect):
                    key = (effect.source, rank, "p2p")
                else:
                    key = (effect.root, rank, "coll")
                self._waiters[key] = rank
            else:
                clock = proc.clock
                arrival = head.arrival_time
                self._push_seq += 1
                heapq.heappush(
                    self._heap,
                    (
                        arrival if arrival > clock else clock,
                        3, rank, self._push_seq, "proc", proc, version,
                    ),
                )

    def _arrival_notifier(self):
        """Network arrival notification: wake the channel's waiter.

        A closure over the waiter table and a weak reference rather
        than a bound method, so the network (which this simulation
        owns) holds no strong link back to it.
        """
        waiters = self._waiters
        sim = weakref.ref(self)

        def on_enqueue(message: Message) -> None:
            rank = waiters.pop(message.channel, None)
            if rank is not None:
                sim()._reschedule(rank)

        return on_enqueue

    def _resync(self) -> None:
        """Rebuild the scheduling index from the engine's plain state.

        Used after global rollback (every key is stale at once) and as
        the deadlock-check fallback. The queues and process records stay
        authoritative; the index is always disposable.
        """
        self._heap.clear()
        self._waiters.clear()
        for message in self._control_queue:
            seq = self._ctl_seqs.get(id(message))
            if seq is None:
                seq = self._ctl_seq
                self._ctl_seq += 1
                self._ctl_seqs[id(message)] = seq
            self._push(message.arrival_time, 1, seq, "ctl", message)
        for timer in self._timers:
            self._push(timer[0], 2, timer[1], "timer", timer)
        for proc in self.procs:
            self._reschedule(proc.rank)

    def _awaited_message(self, proc: _Proc) -> Message | None:
        effect = proc.blocked_effect
        cls = effect.__class__
        if cls is RecvEffect:
            return self.network.peek(effect.source, proc.rank, "p2p")
        if cls is BcastRecvEffect:
            return self.network.peek(effect.root, proc.rank, "coll")
        raise SimulationError(f"blocked process without a recv effect: {proc.rank}")
