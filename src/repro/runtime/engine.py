"""The discrete-event simulation engine.

Each process executes its MiniMP interpreter one effect at a time; the
engine charges simulated time per effect, routes messages over the FIFO
network, maintains vector clocks, records the trace, takes snapshots to
stable storage, injects crashes from the failure plan, and dispatches
protocol hooks (control messages, timers, forced checkpoints, pausing,
rollback).

:class:`Simulation` builds the shared state of one run and composes one
base class per decision: :class:`~repro.runtime.scheduler.Scheduler`
picks the next item, :class:`~repro.runtime.dispatch.Dispatch` performs
it, :class:`~repro.runtime.commit.Commit` writes checkpoints and
:class:`~repro.runtime.recovery.Recovery` restores them.
"""

from __future__ import annotations

from repro.errors import SimulationError, UnrecoverableError
from repro.lang import ast_nodes as ast
from repro.runtime.commit import Commit
from repro.runtime.config import (
    RunConfig,
    RuntimeCosts,
    SimulationResult,
    SimulationStats,
)
from repro.runtime.dispatch import Dispatch
from repro.runtime.failures import FaultPlan
from repro.runtime.hooks import NullProtocol, ProtocolHooks
from repro.runtime.inputs import InputProvider
from repro.runtime.interpreter import make_backend
from repro.runtime.network import Network
from repro.runtime.recovery import Recovery
from repro.runtime.scheduler import Scheduler, _Proc
from repro.runtime.storage import CheckpointStore
from repro.runtime.trace import ExecutionTrace
from repro.runtime.transport import NetworkFaultInjector


class Simulation(Scheduler, Dispatch, Commit, Recovery):
    """One configured run of a MiniMP program on ``n`` processes."""

    def __init__(
        self,
        program: ast.Program,
        n_processes: int,
        params: dict[str, int] | None = None,
        protocol: ProtocolHooks | None = None,
        fault_plan: FaultPlan | None = None,
        observer=None,
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
        # For "compiled" this is where the program is lowered, once,
        # shared by every rank.
        process_factory, compiled, self._stmt_labels = make_backend(
            program, n_processes, config.backend
        )
        self.backend = config.backend
        self.program = program
        self.n = n_processes
        self._ranks = range(n_processes)
        self.costs = config.costs or RuntimeCosts()
        self.protocol = protocol if protocol is not None else NullProtocol()
        self.obs = observer
        self.network = Network(
            n_processes,
            base_latency=config.base_latency,
            seed=config.seed,
            fault_injector=NetworkFaultInjector(plan.network_faults),
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
        inputs = InputProvider(seed=config.seed)
        self.procs = []
        for rank in self._ranks:
            interp = process_factory(rank, params, inputs)
            self.procs.append(_Proc(
                rank=rank, interp=interp,
                fast_local=getattr(interp, "step_local", None),
            ))
        self._init_dispatch()
        self._init_recovery(plan)
        self._init_commit(config, plan, program, compiled)
        self._init_scheduler(config, plan)
        # Checkpoint 0: the initial state of every process, so recovery
        # can always fall back to a (trivially consistent) cut.
        for proc in self.procs:
            self._store_checkpoint(proc, stmt_id=None, tag="initial", time=0.0)
        self._resync()

    def emit(
        self, name: str, rank: int | None, time: float, **fields
    ) -> None:
        """Publish a ``protocol``-category observability event.

        No-op without an observer, so protocol call sites stay
        zero-cost when tracing is disabled.
        """
        if self.obs is not None:
            self.obs.emit("protocol", name, rank, time, **fields)

    def run(self) -> SimulationResult:
        """Execute until every process finishes (or a guard trips).

        A terminal recovery failure does **not** raise: the supervisor's
        :class:`UnrecoverableError` is absorbed here into a normally
        returned result with ``stats.unrecoverable`` set, so callers
        (and the chaos harness) get full stats and artifacts.
        """
        self.protocol.on_start(self)
        try:
            self._loop()
        except UnrecoverableError:
            pass  # the supervisor gave up: some rank never finished
        stats = self.stats
        stats.completed = self._n_done == self.n
        stats.corrupt_checkpoints = self.storage.corruption_detected
        # The transport's counters keep their names in the stats.
        for name, value in vars(self.network.transport.stats).items():
            setattr(stats, name, value)
        stats.stored_checkpoints = self.storage.total_count()
        # As-stored (wire) occupancy: delta entries count their delta
        # payload, so this agrees with the per-commit snapshot_bytes
        # metrics. Identical to the full-content sum outside delta mode.
        stats.stored_bytes = self.storage.total_bytes(incremental=True)
        stats.recovery_read_faults = self.storage.read_faults_injected
        stats.gc_collected = self.storage.gc_collected
        stats.gc_reclaimed_bytes = self.storage.gc_reclaimed_bytes
        completion_time = max((p.clock for p in self.procs), default=0.0)
        if self.obs is not None:
            self.obs.emit(
                "storage", "occupancy", None, completion_time,
                count=stats.stored_checkpoints,
                bytes=stats.stored_bytes,
                gc_collected=stats.gc_collected,
                gc_reclaimed_bytes=stats.gc_reclaimed_bytes,
            )
        return SimulationResult(
            trace=self.trace,
            stats=stats,
            storage=self.storage,
            final_env={p.rank: dict(p.interp.env) for p in self.procs},
            completion_time=completion_time,
        )
