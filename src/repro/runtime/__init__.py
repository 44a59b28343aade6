"""Discrete-event distributed-system simulator.

This package is the substrate replacing the paper's cluster testbed: it
executes MiniMP programs on ``n`` simulated processes connected by
reliable FIFO channels, with per-statement time accounting, stable
storage for checkpoints, failure injection, and rollback recovery. A
process's state is explicit (no native coroutines), so a checkpoint is
a genuine restorable snapshot of it. The reference interpreter, the
compiled backend's differential oracle, is re-exported lazily: a run
on the compiled backend never imports it.
"""

from repro.lazy import lazy_exports

from repro.runtime.chaos import (
    ChaosConfig,
    chaos_sweep,
    draw_schedule,
    dump_failure_artifacts,
    run_schedule,
    shrink_schedule,
)
from repro.runtime.effects import (
    BcastRecvEffect,
    BcastSendEffect,
    CheckpointEffect,
    ComputeEffect,
    Effect,
    LocalEffect,
    ProcessSnapshot,
    RecvEffect,
    SendEffect,
)
from repro.runtime.config import (
    RunConfig,
    RuntimeCosts,
    SimulationResult,
)
from repro.runtime.engine import Simulation
from repro.runtime.failures import (
    CrashEvent,
    FaultKind,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
    exponential_fault_plan,
)
from repro.runtime.network import Message, Network
from repro.runtime.recovery import RecoverySupervisor
from repro.runtime.transport import (
    NetworkFaultInjector,
    ReliableTransport,
    TransportStats,
)
from repro.runtime.storage import (
    CheckpointStore,
    RetentionPolicy,
    StoredCheckpoint,
)
from repro.runtime.trace import ExecutionTrace

_EXPORTS = {"repro.runtime.interpreter": ("ProcessInterpreter",)}

__all__ = [
    "BcastRecvEffect",
    "BcastSendEffect",
    "CheckpointEffect",
    "ChaosConfig",
    "CheckpointStore",
    "ComputeEffect",
    "CrashEvent",
    "Effect",
    "ExecutionTrace",
    "FaultKind",
    "FaultPlan",
    "LocalEffect",
    "Message",
    "Network",
    "NetworkFaultEvent",
    "NetworkFaultInjector",
    "NetworkFaultKind",
    "ProcessInterpreter",
    "ProcessSnapshot",
    "RecoveryFaultEvent",
    "RecoveryFaultKind",
    "RecoverySupervisor",
    "RecvEffect",
    "ReliableTransport",
    "RetentionPolicy",
    "RunConfig",
    "RuntimeCosts",
    "SendEffect",
    "Simulation",
    "SimulationResult",
    "StorageFaultEvent",
    "StoredCheckpoint",
    "TransportStats",
    "chaos_sweep",
    "draw_schedule",
    "dump_failure_artifacts",
    "exponential_fault_plan",
    "run_schedule",
    "shrink_schedule",
]

__getattr__ = lazy_exports(globals(), _EXPORTS)
