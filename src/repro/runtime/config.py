"""The plain data of one run: its knobs, time charges and results."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.runtime.storage import CheckpointStore
    from repro.runtime.trace import ExecutionTrace

#: The recognised execution backends, in default-first order.
BACKENDS = ("compiled", "reference")
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
    validated: :class:`~repro.runtime.engine.Simulation` builds one
    from its keyword arguments,
    :class:`~repro.campaign.spec.ScenarioSpec` and
    :class:`~repro.runtime.chaos.ChaosConfig` inherit its fields, and
    the CLI derives its run-knob flags from them — so an invalid value
    fails with the same error wherever it enters.

    Attributes:
        seed: Simulator seed (inputs, latencies).
        base_latency: Mean one-way message latency.
        storage_replicas: Stable-storage replication factor.
        max_storage_retries: Per-write retry budget of the store.
        max_steps: Engine step budget.
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
    max_steps: int = 2_000_000
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


@dataclass
class SimulationStats:
    """Aggregate counters of one run.

    A run ends in one of two ways, because the loop has no other way
    out (a deadlock and an exhausted step budget raise): every rank
    finished (``completed``), or the recovery supervisor gave up
    (:attr:`unrecoverable`, its negation, read once the run is over).
    """

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
    def unrecoverable(self) -> bool:
        """Whether the recovery supervisor gave up on the run."""
        return not self.completed

    @property
    def max_fallback_depth(self) -> int:
        """Deepest degraded-recovery fallback seen (0 = never degraded)."""
        return max(self.fallback_depths, default=0)

    def as_dict(self) -> dict:
        """JSON-ready form of every counter, derived properties included.

        The machine-readable shape behind the CLI's ``--stats-json``:
        all dataclass fields plus ``unrecoverable`` and
        ``max_fallback_depth``, so benchmarks and CI never have to parse
        the human-oriented table output.
        """
        payload = asdict(self)
        payload["unrecoverable"] = self.unrecoverable
        payload["max_fallback_depth"] = self.max_fallback_depth
        return payload


@dataclass
class SimulationResult:
    """Everything a finished run exposes.

    A run the recovery supervisor gave up on still returns normally,
    with ``stats.unrecoverable`` set and full stats and storage,
    instead of raising out of
    :meth:`~repro.runtime.engine.Simulation.run`.
    """

    trace: ExecutionTrace
    stats: SimulationStats
    storage: CheckpointStore
    final_env: dict[int, dict[str, int]]
    completion_time: float
