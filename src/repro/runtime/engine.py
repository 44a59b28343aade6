"""The discrete-event simulation engine.

Each process executes its MiniMP interpreter one effect at a time; the
engine charges simulated time per effect, routes messages over the FIFO
network, maintains vector clocks, records the trace, takes snapshots to
stable storage, injects crashes from the failure plan, and dispatches
protocol hooks (control messages, timers, forced checkpoints, pausing,
rollback).

Scheduling picks the globally earliest actionable item — a runnable
process (at its local clock), a blocked process whose awaited message
has arrived, a control-message arrival, a timer, or a crash — which
yields a causally consistent interleaving: an item executed at time
``t`` can only be affected by items at times ``<= t``.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field, fields

from repro.causality.records import EventKind
from repro.causality.vector_clock import VectorClock
from repro.errors import (
    DeadlockError,
    NestedFailureError,
    RecoveryControlError,
    RecoveryError,
    SimulationError,
    StorageError,
    TransientStorageError,
    UnrecoverableError,
)
from repro.lang import ast_nodes as ast
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
from repro.runtime.failures import (
    FaultPlan,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)
from repro.runtime.hooks import ControlMessage, NullProtocol, ProtocolHooks
from repro.runtime.inputs import InputProvider
from repro.runtime.interpreter import (
    BACKENDS,
    ProcessInterpreter,
    make_backend,
)
from repro.runtime.network import Message, Network
from repro.runtime.encoding import SizeLedger
from repro.runtime.storage import (
    DELTA_CHAIN_CAP,
    CheckpointStore,
    RetentionPolicy,
    StoredCheckpoint,
)
from repro.runtime.trace import ExecutionTrace
from repro.runtime.transport import NetworkFaultInjector, TransportConfig

#: Recognised checkpoint-content modes, default first. "pruned+delta"
#: zeroes liveness-proven dead env slots at application checkpoints and
#: stores per-rank change records against the previous published
#: checkpoint.
CHECKPOINT_MODES = ("full", "pruned+delta")


@dataclass(frozen=True)
class RuntimeCosts:
    """Per-effect time charges, in simulated seconds.

    Defaults scale the paper's Starfish constants down so simulations
    of hundreds of iterations stay fast; the ratios are what matter.
    """

    local_statement: float = 0.01
    send_overhead: float = 0.05
    recv_overhead: float = 0.05
    compute_unit: float = 0.2
    checkpoint_overhead: float = 1.0       # the paper's o
    recovery_overhead: float = 2.0         # the paper's R
    control_latency: float = 0.05          # transit time of a control message
    storage_retry_backoff: float = 0.25    # base of the exponential backoff


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The plain-data knobs of one run, declared once.

    This is the only place a run knob is declared, defaulted and
    validated: :class:`Simulation` builds one from its keyword
    arguments, :class:`~repro.campaign.spec.ScenarioSpec` and
    :class:`~repro.runtime.chaos.ChaosConfig` inherit its fields, and
    the CLI derives its run-knob flags from them — so an invalid value
    fails with the same error wherever it enters.

    Attributes:
        seed: Simulator seed (inputs, latencies).
        base_latency: Mean one-way message latency.
        storage_replicas: Stable-storage replication factor.
        max_storage_retries: Per-write retry budget of the store.
        record_compute_events: Whether compute effects enter the trace.
        max_steps: Engine step budget.
        transport: Reliable-transport tunables, or ``None`` for stock.
        costs: Per-effect time charges, or ``None`` for the defaults.
        retain_k: Bounded-storage retention (max checkpoints per rank),
            or ``None`` for unbounded storage.
        backend: Process-execution backend — ``"compiled"`` (closure
            compiler) or ``"reference"`` (tree-walking interpreter).
            Both produce identical traces and artifacts.
        checkpoint_mode: Checkpoint content policy — ``"full"`` or
            ``"pruned+delta"`` (liveness-pruned snapshots stored as
            delta-encoded payloads). Both modes recover to
            byte-identical application state; only stored payload bytes
            differ.
    """

    seed: int = 0
    base_latency: float = 0.5
    storage_replicas: int = 1
    max_storage_retries: int = 3
    record_compute_events: bool = False
    max_steps: int = 2_000_000
    transport: TransportConfig | None = None
    costs: RuntimeCosts | None = None
    retain_k: int | None = None
    backend: str = "compiled"
    checkpoint_mode: str = "full"

    def __post_init__(self) -> None:
        for name, choices in (
            ("checkpoint_mode", CHECKPOINT_MODES),
            ("backend", BACKENDS),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise SimulationError(
                    f"unknown {name} {value!r} "
                    f"(expected one of {', '.join(choices)})"
                )
        if self.storage_replicas < 1:
            raise SimulationError(
                "need at least one storage replica, "
                f"got {self.storage_replicas}"
            )
        for name, floor in (
            ("max_storage_retries", 0),
            ("max_steps", 1),
            ("base_latency", 0),
        ):
            value = getattr(self, name)
            if value < floor:
                raise SimulationError(
                    f"{name} must be >= {floor}, got {value}"
                )
        if self.retain_k is not None and self.retain_k < 2:
            raise SimulationError(
                "retain_k must be >= 2 (the newest checkpoint plus a "
                f"recovery floor), got {self.retain_k}"
            )

    def run_knobs(self) -> dict:
        """This object's :class:`RunConfig` fields as keyword arguments."""
        return {f.name: getattr(self, f.name) for f in fields(RunConfig)}


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/backoff policy of the :class:`RecoverySupervisor`.

    Attributes:
        max_attempts: Recovery attempts per crash before the supervisor
            declares the rank unrecoverable.
        backoff_base: Simulated seconds charged before the second
            attempt; attempt ``k`` waits ``base * factor**(k-1)``.
        backoff_factor: Exponential growth of the backoff.

    Each retry also asks the protocol for a one-number-deeper degraded
    cut (R_i -> R_{i-k}), on top of whatever degradation corruption
    already forces.
    """

    max_attempts: int = 4
    backoff_base: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise SimulationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1:
            raise SimulationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )


@dataclass
class SimulationStats:
    """Aggregate counters of one run."""

    app_messages: int = 0
    control_messages: int = 0
    checkpoints: int = 0
    forced_checkpoints: int = 0
    failures: int = 0
    rollbacks: int = 0
    lost_work: float = 0.0
    completed: bool = False
    steps: int = 0
    # Storage-fault accounting (all zero under a fault-free plan).
    storage_write_failures: int = 0
    torn_writes: int = 0
    storage_retries: int = 0
    bit_rot_injected: int = 0
    corrupt_checkpoints: int = 0
    recovery_fallbacks: int = 0
    fallback_depths: list[int] = field(default_factory=list)
    # Recovery-supervisor accounting (all zero/False when recovery
    # never retried and never gave up).
    recovery_attempts: int = 0
    recovery_retries: int = 0
    recovery_backoff_time: float = 0.0
    nested_crashes: int = 0
    recovery_control_lost: int = 0
    recovery_read_faults: int = 0
    unrecoverable: bool = False
    # Storage occupancy and retention GC (measured at run end).
    stored_checkpoints: int = 0
    stored_bytes: int = 0
    gc_collected: int = 0
    gc_reclaimed_bytes: int = 0
    # Transport accounting (all zero under a fault-free network, except
    # the frame/ACK traffic every message generates).
    frames_sent: int = 0
    retransmits: int = 0
    dropped_frames: int = 0
    corrupt_frames: int = 0
    delayed_frames: int = 0
    duplicate_frames: int = 0
    dups_suppressed: int = 0
    ack_frames: int = 0
    acks_lost: int = 0

    @property
    def max_fallback_depth(self) -> int:
        """Deepest degraded-recovery fallback seen (0 = never degraded)."""
        return max(self.fallback_depths, default=0)

    def as_dict(self) -> dict:
        """JSON-ready form of every counter, derived properties included.

        The machine-readable shape behind the CLI's ``--stats-json``:
        all dataclass fields plus ``max_fallback_depth``, so benchmarks
        and CI never have to parse the human-oriented table output.
        """
        from dataclasses import asdict

        payload = asdict(self)
        payload["max_fallback_depth"] = self.max_fallback_depth
        return payload


@dataclass
class SimulationResult:
    """Everything a finished run exposes.

    ``verdict`` is ``"completed"`` for a clean finish, ``"incomplete"``
    for a ``max_time`` cutoff, and ``"unrecoverable"`` when the
    recovery supervisor gave up — the run still returns normally with
    full stats and storage, instead of raising out of :meth:`run`.
    """

    trace: ExecutionTrace
    stats: SimulationStats
    storage: CheckpointStore
    final_env: dict[int, dict[str, int]]
    completion_time: float
    verdict: str = "completed"


def run_verdict(unrecoverable: bool, completed: bool) -> str:
    """A run's :attr:`SimulationResult.verdict`, from its two stats flags."""
    if unrecoverable:
        return "unrecoverable"
    return "completed" if completed else "incomplete"


_INF = float("inf")


class _Status:
    READY = "ready"
    BLOCKED = "blocked"
    PAUSED = "paused"
    CRASHED = "crashed"
    DONE = "done"


@dataclass
class _Proc:
    rank: int
    interp: ProcessInterpreter
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
    # surfaces when the rank is dispatched (see Simulation._run_ahead).
    held_error: Exception | None = None


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
    :class:`TransientStorageError`) up to ``max_attempts`` times with
    exponential backoff charged to the simulated clock; (3) escalates
    the degraded fallback one recovery line deeper per retry; and
    (4) converts exhaustion — or a terminal storage state — into a
    clean :class:`UnrecoverableError` verdict that :meth:`Simulation.run`
    turns into ``SimulationResult.verdict == "unrecoverable"``.

    Protocol-bug errors (a plain :class:`RecoveryError` such as "not a
    recovery line") are **not** retried and propagate unchanged.
    """

    def __init__(
        self,
        sim: "Simulation",
        config: SupervisorConfig,
        recovery_faults: list[RecoveryFaultEvent],
    ) -> None:
        # Weak: the simulation owns its supervisor, and a strong link
        # back would leave every finished run to the cyclic collector.
        self._sim = weakref.ref(sim)
        self.config = config
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
    def sim(self) -> "Simulation":
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
        while attempt < self.config.max_attempts:
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
                backoff = self.config.backoff_base * (
                    self.config.backoff_factor ** (attempt - 1)
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
        sim.stats.unrecoverable = True
        if sim.obs is not None:
            sim.obs.emit(
                "engine", "unrecoverable", rank, now,
                attempts=attempt, cause=str(cause),
            )
        raise UnrecoverableError(
            f"rank {rank} is unrecoverable after {attempt} attempt(s): "
            f"{cause}"
        ) from cause


class Simulation:
    """One configured run of a MiniMP program on ``n`` processes."""

    #: Whether the run loop keeps executing the scheduler minimum
    #: without a heap round trip per effect (see :meth:`run`). A
    #: subclass whose scheduler keeps no heap must turn it off.
    _batch_dispatch = True

    def __init__(
        self,
        program: ast.Program,
        n_processes: int,
        params: dict[str, int] | None = None,
        protocol: ProtocolHooks | None = None,
        fault_plan: FaultPlan | None = None,
        observer=None,
        recovery: SupervisorConfig | None = None,
        **knobs,
    ) -> None:
        """Configure a run; ``**knobs`` are :class:`RunConfig` fields.

        An unknown knob raises ``TypeError``, an invalid value
        :class:`SimulationError`.
        """
        config = RunConfig(**knobs)
        if n_processes < 1:
            raise SimulationError(f"need at least one process, got {n_processes}")
        plan = fault_plan if fault_plan is not None else FaultPlan()
        plan.check_targets(n_processes, config.storage_replicas)
        self.checkpoint_mode = config.checkpoint_mode
        # Minimal content zeroes provably-dead env slots at app
        # checkpoints and stores only what changed since the rank's
        # previous published checkpoint.
        self._minimal = config.checkpoint_mode != "full"
        # For "compiled" this is where the program is lowered, once,
        # shared by every rank.
        process_factory, compiled, self._stmt_labels = make_backend(
            program, n_processes, config.backend
        )
        self.backend = config.backend
        self._dead_sets: dict[int, frozenset[str]] = {}
        if self._minimal:
            # Imported here: the attributes package pulls in the CFG
            # machinery, which imports lang (and transitively this
            # module) — a top-level import would be circular.
            from repro.attributes.liveness import checkpoint_dead_sets

            # One liveness pass per simulation, shared by every rank;
            # both backends consume the same per-checkpoint dead sets.
            self._dead_sets = {
                stmt_id: dead
                for stmt_id, dead in checkpoint_dead_sets(program).items()
                if dead
            }
            # The compiled backend keeps register masks on the shared
            # lowered program; the reference backend is configured
            # per-interpreter once ``self.procs`` exists below.
            if compiled is not None:
                compiled.configure_pruning(self._dead_sets)
        self.program = program
        self.n = n_processes
        self._ranks = range(n_processes)
        self.costs = config.costs or RuntimeCosts()
        self.protocol = protocol if protocol is not None else NullProtocol()
        # The base piggyback hook returns {} and has no side effects, so
        # sends can skip the call (and the empty-dict copy in the
        # network layer) unless the protocol overrides it.
        self._has_piggyback = (
            type(self.protocol).piggyback is not ProtocolHooks.piggyback
        )
        self._sees_app_messages = (
            type(self.protocol).on_app_message
            is not ProtocolHooks.on_app_message
        )
        # A protocol that reacts to neither control messages nor timers
        # cannot act on a rank between that rank's own effects, which is
        # what lets the run loop execute local statements ahead of time.
        self._coordination_free = (
            type(self.protocol).on_control is ProtocolHooks.on_control
            and type(self.protocol).on_timer is ProtocolHooks.on_timer
        )
        self.obs = observer
        self.network = Network(
            n_processes,
            base_latency=config.base_latency,
            seed=config.seed,
            fault_injector=NetworkFaultInjector(plan.network_faults),
            transport_config=config.transport,
            observer=observer,
        )
        self.storage = CheckpointStore(
            max_retries=config.max_storage_retries,
            replicas=config.storage_replicas,
        )
        self.storage.obs = observer
        self.trace = ExecutionTrace(
            n_processes=n_processes, observer=observer
        )
        self.stats = SimulationStats()
        self.record_compute_events = config.record_compute_events
        self._max_steps = config.max_steps
        self._inputs = InputProvider(seed=config.seed)
        self._clocks = [VectorClock.zero(n_processes) for _ in range(n_processes)]
        if observer is not None:
            observer.bind_clocks(self._clocks)
        self._message_clocks: dict[int, VectorClock] = {}
        self._control_queue: list[ControlMessage] = []
        self._timers: list[tuple[float, int, int, str]] = []
        self._timer_seq = 0
        self._crashes = list(plan.effective())
        # Bit rot fires through the event loop; write faults arm and
        # wait for a matching checkpoint write. Both come sorted by
        # (time, rank).
        self._rot_events = plan.rot_events()
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
            [SizeLedger(memo) for _ in range(n_processes)]
            if self._minimal or observer is not None else None
        )
        self.supervisor = RecoverySupervisor(
            self, recovery or SupervisorConfig(), list(plan.recovery_faults)
        )
        if config.retain_k is None:
            self._retention = None
        else:
            # Protect every degraded-fallback candidate the supervisor
            # could escalate to (one number deeper per retry).
            self._retention = RetentionPolicy(
                config.retain_k,
                protect_depth=max(1, self.supervisor.config.max_attempts - 1),
            )
        self.procs = [
            _Proc(
                rank=rank,
                interp=process_factory(rank, params, self._inputs),
            )
            for rank in range(n_processes)
        ]
        for proc in self.procs:
            proc.fast_local = getattr(proc.interp, "step_local", None)
        if self._dead_sets and compiled is None:
            # Reference backend: each interpreter holds its own copy of
            # the shared dead-set table (the compiled backend was
            # configured once on the shared program above).
            for proc in self.procs:
                proc.interp.configure_pruning(self._dead_sets)
        # Backend diagnostics are strictly opt-in: an unconditional
        # backend-identifying event would break the byte-identical
        # cross-backend JSONL contract, so the bus must declare
        # ``wants_backend_events`` to receive them.
        if observer is not None and getattr(
            observer, "wants_backend_events", False
        ):
            observer.emit(
                "engine", "backend", None, 0.0, backend=config.backend
            )
            if compiled is not None:
                observer.emit(
                    "span", "compile.lower", None, 0.0,
                    span_id=-1, parent=None, dur=0.0,
                    **compiled.lowering_stats,
                )
        # Scheduler state: a single priority queue of actionable items
        # with lazy invalidation (per-rank version counters), plus
        # channel waiters so blocked receivers are woken by arrival
        # notifications instead of being polled every step.
        self._heap: list[tuple] = []
        self._push_seq = 0
        self._proc_version = [0] * n_processes
        self._waiters: dict[tuple[int, int, str], int] = {}
        self._ctl_seqs: dict[int, int] = {}
        self._ctl_seq = 0
        self._pending_entry: tuple | None = None
        self._n_done = 0
        self.network.on_enqueue = self._arrival_notifier()
        # Checkpoint 0: the initial state of every process, so recovery
        # can always fall back to a (trivially consistent) cut.
        for proc in self.procs:
            self._store_checkpoint(proc, stmt_id=None, tag="initial", time=0.0)
        self._resync()

    @property
    def recovery_escalation(self) -> int:
        """Extra fallback depth the current recovery attempt asks for."""
        return self.supervisor.escalation

    # ------------------------------------------------------------------
    # Services used by protocols
    # ------------------------------------------------------------------

    def emit(
        self, name: str, rank: int | None, time: float, **fields
    ) -> None:
        """Publish a ``protocol``-category observability event.

        No-op without an observer, so protocol call sites stay
        zero-cost when tracing is disabled.
        """
        if self.obs is not None:
            self.obs.emit("protocol", name, rank, time, **fields)

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
        for rank, checkpoint in cut.items():
            proc = self.procs[rank]
            self.stats.lost_work += max(0.0, proc.clock - checkpoint.time)
            self.storage.truncate_to(checkpoint)
            self._restart_proc(proc, checkpoint, restart)
        self.stats.rollbacks += 1
        self._n_done = sum(
            1 for p in self.procs if p.status is _Status.DONE
        )
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
        proc = self.procs[rank]
        restart = at_time + self.costs.recovery_overhead
        self.stats.lost_work += max(0.0, proc.clock - checkpoint.time)
        # Same single-timeline rule as restore_cut: entries stored after
        # the restore point (stale under a degraded restart, corrupt, or
        # both) would let a later recovery assemble a cut mixing the
        # replayed timeline with the discarded one.
        self.storage.truncate_to(checkpoint)
        self.network.replay_for_rank(
            rank, checkpoint.channel_cursors, restart
        )
        self._restart_proc(proc, checkpoint, restart)
        self.stats.rollbacks += 1
        self._n_done = sum(
            1 for p in self.procs if p.status is _Status.DONE
        )
        self._reschedule(rank)
        if self.obs is not None:
            self.obs.emit(
                "engine", "single-restart", rank, restart,
                checkpoint_number=checkpoint.number,
            )

    def _restart_proc(
        self, proc: _Proc, checkpoint: StoredCheckpoint, restart: float
    ) -> None:
        """Put *proc* back at *checkpoint*, to resume at time *restart*."""
        rank = proc.rank
        proc.interp.restore(checkpoint.snapshot)
        proc.clock = restart
        proc.paused = False
        proc.held_error = None
        self._last_stored[rank] = checkpoint
        self._clocks[rank] = checkpoint.clock
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
        self._tick(rank)
        self.trace.append(
            EventKind.RESTART,
            rank,
            restart,
            self._clocks[rank],
            checkpoint_number=checkpoint.number,
        )

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

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_time: float | None = None) -> SimulationResult:
        """Execute until every process finishes (or a guard trips).

        A terminal recovery failure does **not** raise: the supervisor's
        :class:`UnrecoverableError` is absorbed here into a normally
        returned result with ``verdict == "unrecoverable"``, so callers
        (and the chaos harness) get full stats and artifacts.
        """
        self.protocol.on_start(self)
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
        limit = max_time if max_time is not None else _INF
        try:
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
                if time > limit:
                    self._unpop_last()
                    break
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
                            if clock > limit or bound <= clock:
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
                                        self._run_ahead(proc, limit, bound)
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
                    self._apply_storage_fault(payload, time)
                elif priority == 0:
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
        except UnrecoverableError:
            pass  # the supervisor set ``stats.unrecoverable`` as it gave up
        self.stats.completed = self._n_done == self.n
        self.stats.corrupt_checkpoints = self.storage.corruption_detected
        transport = self.network.transport.stats
        self.stats.frames_sent = transport.frames_sent
        self.stats.retransmits = transport.retransmits
        self.stats.dropped_frames = transport.dropped_frames
        self.stats.corrupt_frames = transport.corrupt_frames
        self.stats.delayed_frames = transport.delayed_frames
        self.stats.duplicate_frames = transport.duplicate_frames
        self.stats.dups_suppressed = transport.dups_suppressed
        self.stats.ack_frames = transport.ack_frames
        self.stats.acks_lost = transport.acks_lost
        self.stats.stored_checkpoints = self.storage.total_count()
        # As-stored (wire) occupancy: delta entries count their delta
        # payload, so this agrees with the per-commit snapshot_bytes
        # metrics. Identical to the full-content sum outside delta mode.
        self.stats.stored_bytes = self.storage.total_bytes(incremental=True)
        self.stats.recovery_read_faults = self.storage.read_faults_injected
        self.stats.gc_collected = self.storage.gc_collected
        self.stats.gc_reclaimed_bytes = self.storage.gc_reclaimed_bytes
        completion_time = max((p.clock for p in self.procs), default=0.0)
        if self.obs is not None:
            self.obs.emit(
                "storage", "occupancy", None, completion_time,
                count=self.stats.stored_checkpoints,
                bytes=self.stats.stored_bytes,
                gc_collected=self.stats.gc_collected,
                gc_reclaimed_bytes=self.stats.gc_reclaimed_bytes,
            )
        return SimulationResult(
            trace=self.trace,
            stats=self.stats,
            storage=self.storage,
            final_env={p.rank: dict(p.interp.env) for p in self.procs},
            completion_time=completion_time,
            verdict=run_verdict(stats.unrecoverable, stats.completed),
        )

    def _over_budget(self) -> SimulationError:
        return SimulationError(
            f"step budget exceeded ({self._max_steps}); "
            "likely a livelock or a runaway failure plan"
        )

    def _run_ahead(self, proc: _Proc, limit: float, bound: float) -> None:
        """Run *proc*'s pure-local statements ahead of the scheduler minimum.

        Legal only under a coordination-free protocol with no control
        message or timer outstanding: nothing can then read or change
        this rank's state before its own next send, receive, checkpoint
        or compute, so its local statements up to that point may run now
        instead of taking one heap round trip each. The run stops where
        the strict-minimum loop would have stopped the rank too — past
        *limit* (``max_time``), at *bound* (the next crash or bit-rot
        time) — or at the first statement that is not pure-local, whose
        staged effect is dispatched from the heap at ``(clock, 3, rank)``
        like any other, so every visible action keeps its order. A
        statement that raises is held back to that same turn: ranks
        with earlier turns must get to fail first.
        """
        step_local = proc.fast_local
        stats = self.stats
        cost = self.costs.local_statement
        max_steps = self._max_steps
        clock = proc.clock
        while clock <= limit and clock < bound:
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

    # -- scheduling --------------------------------------------------------------
    #
    # A single heap of actionable items keyed
    # ``(time, priority, tiebreak, push_seq)`` with lazy invalidation.
    # Process entries carry a per-rank version; any state change bumps
    # the version and pushes a fresh entry, so stale entries are
    # discarded on pop. Blocked processes whose channel is empty hold no
    # entry at all — the network's arrival notification re-indexes them
    # — so a step costs O(log n) instead of a scan of every process,
    # control message, and timer.
    #
    # The tiebreaks replicate the first-considered-wins order of that
    # scan exactly: control messages by send order, timers by creation
    # order, processes by rank; classes at equal times resolve by
    # priority. Bit rot (-1) sorts ahead of a same-instant crash (0): the
    # most adversarial interleaving corrupts storage first, so the
    # crash's recovery must already cope with it. The scan itself lives
    # on in the tests as the differential oracle
    # ``ReferenceSchedulerSimulation``.

    def _next_item(self) -> tuple[float, int, object] | None:
        self._pending_entry = None
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
                    # The heap wins: remember the popped entry so a
                    # max_time cutoff can push it back un-dispatched.
                    self._pending_entry = entry
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

    def _unpop_last(self) -> None:
        """Undo the pop behind the last `_next_item` (max_time cutoff)."""
        if self._pending_entry is not None:
            heapq.heappush(self._heap, self._pending_entry)
            self._pending_entry = None

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

    # -- execution ---------------------------------------------------------------

    def _execute_process(self, proc: _Proc) -> None:
        if proc.status is _Status.BLOCKED:
            self._complete_receive(proc)
            return
        if proc.held_error is not None:
            error, proc.held_error = proc.held_error, None
            raise error
        effect = proc.interp.step()
        if effect is None:
            proc.status = _Status.DONE
            self._n_done += 1
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
                self._tick(proc.rank)
                self.trace.append(
                    EventKind.COMPUTE, proc.rank, proc.clock, self._clocks[proc.rank]
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

    # -- checkpoints ------------------------------------------------------------

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
        clocks = self._clocks
        clock = clocks[rank] = clocks[rank].tick(rank)
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
        # seed the entry's lazy caches. A delta must pay off (so payload
        # <= full holds for every entry) and chain below the cap.
        parent = None
        if self._size_ledgers is not None:
            parent = self._last_stored.get(rank)
            full_size, delta_size = self._size_ledgers[rank].price(
                stored, parent
            )
            if (
                not self._minimal
                or delta_size is None
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

    # -- storage faults ----------------------------------------------------------

    def _apply_storage_fault(
        self, fault: StorageFaultEvent, time: float
    ) -> None:
        """Fire a scheduled bit-rot event: corrupt a stored checkpoint.

        Silent by construction — nothing advances any process clock and
        no trace event is recorded, so detection can only happen at
        read (recovery) time, via checksums.
        """
        self._rot_events.remove(fault)
        if self.storage.corrupt(
            fault.rank, number=fault.number, replica=fault.replica
        ):
            self.stats.bit_rot_injected += 1
            if self.obs is not None:
                self.obs.emit(
                    "storage", "bit-rot", fault.rank, time,
                    number=fault.number, replica=fault.replica,
                )

    # -- crashes ---------------------------------------------------------------------

    def _apply_crash(self, crash, time: float) -> None:
        self._crashes.pop(0)
        proc = self.procs[crash.rank]
        if proc.status is _Status.DONE:
            return
        self.stats.failures += 1
        proc.status = _Status.CRASHED
        proc.blocked_effect = None
        self._reschedule(proc.rank)
        self._tick(proc.rank)
        self.trace.append(
            EventKind.FAILURE, proc.rank, time, self._clocks[proc.rank]
        )
        self.supervisor.recover(proc.rank, time)
        if proc.status is _Status.CRASHED:
            raise RecoveryError(
                f"protocol {self.protocol.name!r} left rank {proc.rank} "
                "crashed with no recovery"
            )

    # -- clocks -----------------------------------------------------------------------

    def _tick(self, rank: int) -> None:
        self._clocks[rank] = self._clocks[rank].tick(rank)
