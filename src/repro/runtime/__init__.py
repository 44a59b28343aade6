"""Discrete-event distributed-system simulator.

This package is the substrate replacing the paper's cluster testbed: it
executes MiniMP programs on ``n`` simulated processes connected by
reliable FIFO channels, with per-statement time accounting, stable
storage for checkpoints, failure injection, and rollback recovery. The
interpreter keeps an explicit control stack (no native coroutines), so
a checkpoint is a genuine restorable snapshot of process state.
"""

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
from repro.runtime.interpreter import ProcessInterpreter, ProcessSnapshot
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
