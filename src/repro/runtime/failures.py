"""Failure and fault injection.

A :class:`FailurePlan` is a pre-drawn list of (time, rank) crash
events. A :class:`FaultPlan` extends it with *stable-storage* faults —
checkpoint write failures, torn (partial) writes, silent bit rot, and
transient I/O errors — and with *network* faults — dropped, duplicated,
delayed, and corrupted frames plus timed partitions between rank pairs
— so recovery itself can be stressed, not just triggered. Plans are
generated ahead of the run (exponential arrivals per process or per
channel, or fixed schedules in tests), so simulations stay reproducible
and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class CrashEvent:
    """One injected crash: *rank* fails at *time*."""

    time: float
    rank: int


class FaultKind(str, Enum):
    """Taxonomy of stable-storage faults.

    ``WRITE_FAIL``
        Every attempt to write the targeted checkpoint errors; the
        checkpoint is never published (a lost write).
    ``TORN_WRITE``
        The write lands partially: the staged bytes are truncated. The
        store's two-phase commit detects the tear at validation time
        and discards the blob — the checkpoint is never published, but
        (unlike a naive store) garbage is never visible either.
    ``BIT_ROT``
        Silent corruption of an *already stored* checkpoint at a given
        simulation time; detected only at read time by checksum.
    ``TRANSIENT``
        A retryable I/O error: the first ``attempts`` tries fail, after
        which the write succeeds (if the retry budget allows).
    """

    WRITE_FAIL = "write-fail"
    TORN_WRITE = "torn-write"
    BIT_ROT = "bit-rot"
    TRANSIENT = "transient"


@dataclass(frozen=True)
class StorageFaultEvent:
    """One injected stable-storage fault.

    Attributes:
        time: Activation time. Write-targeting faults (``WRITE_FAIL``,
            ``TORN_WRITE``, ``TRANSIENT``) arm at *time* and hit the
            first matching checkpoint write at or after it; ``BIT_ROT``
            fires at *time* through the event loop, corrupting a
            checkpoint already on storage.
        rank: The process whose checkpoint is targeted.
        kind: The fault class (see :class:`FaultKind`).
        number: Target checkpoint number, or ``None`` for "the next
            write" (write faults) / "the latest stored" (bit rot).
        replica: Which storage replica the fault hits (0 = primary);
            only meaningful with a replicated store.
        attempts: For ``TRANSIENT`` faults, how many write attempts
            fail before one succeeds.
    """

    time: float
    rank: int
    kind: FaultKind
    number: int | None = None
    replica: int = 0
    attempts: int = 1


class NetworkFaultKind(str, Enum):
    """Taxonomy of message/channel faults.

    ``DROP``
        The targeted frame transmission is lost on the wire; the
        transport's retransmission timer recovers it.
    ``DUPLICATE``
        The targeted frame arrives twice; the receiver's sequence-number
        dedup suppresses the second copy.
    ``DELAY``
        The targeted frame is held on the wire for ``delay`` extra
        seconds, arriving out of order; the receiver's reorder buffer
        withholds later frames until the gap fills.
    ``CORRUPT``
        The targeted frame's payload is bit-flipped in transit; the
        receiver's CRC rejects it and retransmission recovers it.
    ``PARTITION``
        From ``time`` on, every frame (data and ACK) between the rank
        pair ``{src, dst}`` is lost, in both directions, until a
        matching ``HEAL``.
    ``HEAL``
        Ends the open partition between ``{src, dst}``.
    """

    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"
    CORRUPT = "corrupt"
    PARTITION = "partition"
    HEAL = "heal"


#: The one-shot kinds, each consumed by a single frame transmission.
ONE_SHOT_NETWORK_KINDS = (
    NetworkFaultKind.DROP,
    NetworkFaultKind.DUPLICATE,
    NetworkFaultKind.DELAY,
    NetworkFaultKind.CORRUPT,
)


@dataclass(frozen=True)
class NetworkFaultEvent:
    """One injected network fault.

    Attributes:
        time: Activation time. One-shot kinds (``DROP``, ``DUPLICATE``,
            ``DELAY``, ``CORRUPT``) arm at *time* and hit the first
            frame transmission on the ``src -> dst`` channel at or
            after it; ``PARTITION``/``HEAL`` open and close a blackout
            window for the unordered pair ``{src, dst}``.
        kind: The fault class (see :class:`NetworkFaultKind`).
        src: Sending rank (for partitions, one side of the pair).
        dst: Receiving rank (for partitions, the other side).
        delay: Extra in-flight seconds, ``DELAY`` faults only.
    """

    time: float
    kind: NetworkFaultKind
    src: int
    dst: int
    delay: float = 0.0

    @property
    def pair(self) -> tuple[int, int]:
        """The unordered ``{src, dst}`` pair (partition identity)."""
        return (min(self.src, self.dst), max(self.src, self.dst))


class RecoveryFaultKind(str, Enum):
    """Taxonomy of faults that strike *during recovery itself*.

    ``CRASH``
        The targeted rank crashes again while rolling back/replaying
        (a nested/cascading failure): the interrupted recovery attempt
        aborts before any state is mutated and the supervisor retries.
    ``READ_FAULT``
        Restore-time storage reads of the targeted rank fail
        transiently: the next ``attempts`` fault-aware reads
        (``latest_intact``/``intact_with_number``/``intact_history``)
        raise :class:`~repro.errors.TransientStorageError`.
    ``CONTROL_LOST``
        The restart/control traffic of a recovery round is lost on the
        wire; the round is abandoned and re-driven by the supervisor.
    """

    CRASH = "crash-in-recovery"
    READ_FAULT = "restore-read-fail"
    CONTROL_LOST = "control-lost"


@dataclass(frozen=True)
class RecoveryFaultEvent:
    """One injected recovery-time fault.

    Recovery faults are keyed by the **recovery operation index** — the
    0-based count of crash-triggered recoveries in the run — rather
    than absolute time, so a plan stays seed-deterministic and
    replayable no matter how backoff shifts the recovery's clock.

    Attributes:
        recovery: Which recovery operation the fault strikes (0 = the
            first crash's recovery).
        rank: The rank the fault targets (the nested-crash victim, the
            rank whose restore reads fail, or the rank whose control
            round is lost).
        kind: The fault class (see :class:`RecoveryFaultKind`).
        attempts: How many recovery attempts the fault disrupts
            (``CRASH``/``CONTROL_LOST``) or how many restore reads fail
            (``READ_FAULT``).
    """

    recovery: int
    rank: int
    kind: RecoveryFaultKind
    attempts: int = 1


#: Allowed per-event JSON keys (typos inside an event entry must not
#: silently drop the field they were meant to set).
_CRASH_EVENT_KEYS = frozenset({"time", "rank"})
_STORAGE_EVENT_KEYS = frozenset(
    {"time", "rank", "kind", "number", "replica", "attempts"}
)
_NETWORK_EVENT_KEYS = frozenset({"time", "kind", "src", "dst", "delay"})
_RECOVERY_EVENT_KEYS = frozenset({"recovery", "rank", "kind", "attempts"})


def _reject_unknown_keys(entry: dict, allowed: frozenset, what: str) -> dict:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise SimulationError(
            f"unknown {what} key(s) {unknown} — "
            f"expected keys from {sorted(allowed)}"
        )
    return entry


@dataclass
class FailurePlan:
    """An ordered schedule of crashes.

    ``max_failures`` bounds how many crashes the engine will actually
    apply (the rest are ignored), which keeps adversarial plans finite.
    """

    crashes: list[CrashEvent] = field(default_factory=list)
    max_failures: int | None = None

    def __post_init__(self) -> None:
        if self.max_failures is not None and self.max_failures < 0:
            raise SimulationError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )
        self.crashes = [
            crash if isinstance(crash, CrashEvent) else CrashEvent(*crash)
            for crash in self.crashes
        ]
        seen: set[tuple[float, int]] = set()
        for crash in self.crashes:
            if crash.time < 0:
                raise SimulationError(
                    f"crash time must be >= 0, got {crash.time} "
                    f"(rank {crash.rank})"
                )
            if crash.rank < 0:
                raise SimulationError(
                    f"crash rank must be >= 0, got {crash.rank}"
                )
            key = (crash.time, crash.rank)
            if key in seen:
                raise SimulationError(
                    f"duplicate crash event (time={crash.time}, "
                    f"rank={crash.rank})"
                )
            seen.add(key)
        self.crashes.sort(key=lambda c: c.time)

    @classmethod
    def none(cls) -> "FailurePlan":
        """The empty (failure-free) plan."""
        return cls()

    @classmethod
    def single(cls, time: float, rank: int) -> "FailurePlan":
        """A single crash of *rank* at *time*."""
        return cls(crashes=[CrashEvent(time=time, rank=rank)])

    def effective(self) -> list[CrashEvent]:
        """The crashes the engine will apply, capped by ``max_failures``."""
        if self.max_failures is None:
            return list(self.crashes)
        return self.crashes[: self.max_failures]


@dataclass
class FaultPlan(FailurePlan):
    """Crashes plus stable-storage faults, in one adversarial schedule.

    A :class:`FaultPlan` is accepted anywhere a :class:`FailurePlan`
    is; engines that understand storage faults additionally thread the
    ``storage_faults`` through their event loop so fault timing
    interleaves deterministically with crashes and messages, and feed
    the ``network_faults`` to the reliable transport's fault injector
    (:class:`repro.runtime.transport.NetworkFaultInjector`).
    """

    storage_faults: list[StorageFaultEvent] = field(default_factory=list)
    network_faults: list[NetworkFaultEvent] = field(default_factory=list)
    recovery_faults: list[RecoveryFaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.network_faults = _validate_network_faults(self.network_faults)
        self.recovery_faults = _validate_recovery_faults(self.recovery_faults)
        normalised: list[StorageFaultEvent] = []
        seen: set[tuple[float, int, str, int | None, int]] = set()
        for fault in self.storage_faults:
            kind = fault.kind
            if not isinstance(kind, FaultKind):
                try:
                    kind = FaultKind(kind)
                except ValueError:
                    known = ", ".join(k.value for k in FaultKind)
                    raise SimulationError(
                        f"unknown fault kind {fault.kind!r}; known: {known}"
                    ) from None
                fault = replace(fault, kind=kind)
            if fault.time < 0:
                raise SimulationError(
                    f"fault time must be >= 0, got {fault.time} "
                    f"(rank {fault.rank})"
                )
            if fault.rank < 0:
                raise SimulationError(
                    f"fault rank must be >= 0, got {fault.rank}"
                )
            if fault.replica < 0:
                raise SimulationError(
                    f"fault replica must be >= 0, got {fault.replica}"
                )
            if fault.attempts < 1:
                raise SimulationError(
                    f"fault attempts must be >= 1, got {fault.attempts}"
                )
            key = (fault.time, fault.rank, kind.value, fault.number,
                   fault.replica)
            if key in seen:
                raise SimulationError(
                    f"duplicate storage fault (time={fault.time}, "
                    f"rank={fault.rank}, kind={kind.value})"
                )
            seen.add(key)
            normalised.append(fault)
        normalised.sort(key=lambda f: (f.time, f.rank))
        self.storage_faults = normalised

    @classmethod
    def of(cls, plan: FailurePlan | None) -> "FaultPlan":
        """*plan* as a :class:`FaultPlan` (``None`` = failure-free).

        A bare :class:`FailurePlan` carries crashes only.
        """
        if isinstance(plan, cls):
            return plan
        if plan is None:
            return cls()
        return cls(crashes=list(plan.crashes), max_failures=plan.max_failures)

    def check_targets(self, n_processes: int, storage_replicas: int) -> None:
        """Reject events aimed at a rank or replica the run does not have.

        The engine constructor calls this, so a plan written for a
        bigger system fails cleanly wherever it enters instead of doing
        nothing (or indexing out of range mid-run).
        """
        ranks = [(f"crash at t={c.time}", c.rank) for c in self.crashes]
        ranks += [
            (f"storage fault at t={f.time}", f.rank)
            for f in self.storage_faults
        ]
        ranks += [
            (f"recovery fault in recovery {f.recovery}", f.rank)
            for f in self.recovery_faults
        ]
        for what, rank in ranks:
            if rank >= n_processes:
                raise SimulationError(
                    f"{what} targets rank {rank} but the simulation has "
                    f"only {n_processes} processes"
                )
        for fault in self.network_faults:
            if fault.src >= n_processes or fault.dst >= n_processes:
                raise SimulationError(
                    f"network fault at t={fault.time} targets channel "
                    f"{fault.src}->{fault.dst} but the simulation has only "
                    f"{n_processes} processes"
                )
        for fault in self.storage_faults:
            if fault.replica >= storage_replicas:
                raise SimulationError(
                    f"storage fault at t={fault.time} targets replica "
                    f"{fault.replica} but storage has only "
                    f"{storage_replicas} replica(s)"
                )

    def write_faults(self) -> list[StorageFaultEvent]:
        """The write-targeting faults (armed, consumed by writes)."""
        return [f for f in self.storage_faults if f.kind is not FaultKind.BIT_ROT]

    def rot_events(self) -> list[StorageFaultEvent]:
        """The bit-rot faults (scheduled through the event loop)."""
        return [f for f in self.storage_faults if f.kind is FaultKind.BIT_ROT]

    #: Top-level keys :meth:`from_json_dict` accepts.
    JSON_KEYS = frozenset(
        {"max_failures", "crashes", "storage_faults", "network_faults",
         "recovery_faults"}
    )

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json_dict`'s JSON schema.

        The inverse of :meth:`to_json_dict`, shared by the CLI's
        ``--fault-plan`` loader and the campaign layer's
        :class:`~repro.campaign.spec.ScenarioSpec`. Unknown top-level
        keys are rejected (a typo like ``"netwrok_faults"`` must not
        silently disable the faults it was meant to inject).
        """
        unknown = sorted(set(data) - cls.JSON_KEYS)
        if unknown:
            raise SimulationError(
                f"unknown top-level key(s) {unknown} — "
                f"expected keys from {sorted(cls.JSON_KEYS)}"
            )
        return cls(
            crashes=[
                CrashEvent(time=float(e["time"]), rank=int(e["rank"]))
                for e in (
                    _reject_unknown_keys(e, _CRASH_EVENT_KEYS, "crash")
                    for e in data.get("crashes", [])
                )
            ],
            max_failures=data.get("max_failures"),
            storage_faults=[
                StorageFaultEvent(
                    time=float(e["time"]),
                    rank=int(e["rank"]),
                    kind=e["kind"],
                    number=e.get("number"),
                    replica=int(e.get("replica", 0)),
                    attempts=int(e.get("attempts", 1)),
                )
                for e in (
                    _reject_unknown_keys(
                        e, _STORAGE_EVENT_KEYS, "storage fault"
                    )
                    for e in data.get("storage_faults", [])
                )
            ],
            network_faults=[
                NetworkFaultEvent(
                    time=float(e["time"]),
                    kind=e["kind"],
                    src=int(e["src"]),
                    dst=int(e["dst"]),
                    delay=float(e.get("delay", 0.0)),
                )
                for e in (
                    _reject_unknown_keys(
                        e, _NETWORK_EVENT_KEYS, "network fault"
                    )
                    for e in data.get("network_faults", [])
                )
            ],
            recovery_faults=[
                RecoveryFaultEvent(
                    recovery=int(e["recovery"]),
                    rank=int(e["rank"]),
                    kind=e["kind"],
                    attempts=int(e.get("attempts", 1)),
                )
                for e in (
                    _reject_unknown_keys(
                        e, _RECOVERY_EVENT_KEYS, "recovery fault"
                    )
                    for e in data.get("recovery_faults", [])
                )
            ],
        )

    def to_json_dict(self) -> dict:
        """The plan in the CLI's ``--fault-plan`` JSON schema.

        The chaos harness archives shrunk counterexamples in this form
        so any dumped schedule replays verbatim with
        ``repro simulate --fault-plan``.
        """
        payload: dict = {}
        if self.max_failures is not None:
            payload["max_failures"] = self.max_failures
        payload["crashes"] = [
            {"time": c.time, "rank": c.rank} for c in self.crashes
        ]
        payload["storage_faults"] = [
            {
                "time": f.time,
                "rank": f.rank,
                "kind": f.kind.value,
                "number": f.number,
                "replica": f.replica,
                "attempts": f.attempts,
            }
            for f in self.storage_faults
        ]
        payload["network_faults"] = [
            {
                "time": f.time,
                "kind": f.kind.value,
                "src": f.src,
                "dst": f.dst,
                "delay": f.delay,
            }
            for f in self.network_faults
        ]
        payload["recovery_faults"] = [
            {
                "recovery": f.recovery,
                "rank": f.rank,
                "kind": f.kind.value,
                "attempts": f.attempts,
            }
            for f in self.recovery_faults
        ]
        return payload


def _validate_recovery_faults(
    faults: list[RecoveryFaultEvent],
) -> list[RecoveryFaultEvent]:
    """Normalise, validate, and sort a recovery-fault schedule.

    Rejects unknown kinds, negative indices/ranks, non-positive
    attempt counts, exact duplicates, and — the nested-failure analogue
    of a double crash — a second ``CRASH`` fault targeting a
    ``(recovery, rank)`` pair that is already crashing (a rank cannot
    crash while it is already down).
    """
    normalised: list[RecoveryFaultEvent] = []
    seen: set[tuple[int, int, str]] = set()
    crashing: set[tuple[int, int]] = set()
    for fault in faults:
        kind = fault.kind
        if not isinstance(kind, RecoveryFaultKind):
            try:
                kind = RecoveryFaultKind(kind)
            except ValueError:
                known = ", ".join(k.value for k in RecoveryFaultKind)
                raise SimulationError(
                    f"unknown recovery fault kind {fault.kind!r}; "
                    f"known: {known}"
                ) from None
            fault = replace(fault, kind=kind)
        if fault.recovery < 0:
            raise SimulationError(
                f"recovery fault index must be >= 0, got {fault.recovery} "
                f"(rank {fault.rank})"
            )
        if fault.rank < 0:
            raise SimulationError(
                f"recovery fault rank must be >= 0, got {fault.rank}"
            )
        if fault.attempts < 1:
            raise SimulationError(
                f"recovery fault attempts must be >= 1, got {fault.attempts}"
            )
        if kind is RecoveryFaultKind.CRASH:
            if (fault.recovery, fault.rank) in crashing:
                raise SimulationError(
                    f"crash scheduled on already-crashed rank {fault.rank} "
                    f"in recovery {fault.recovery}"
                )
            crashing.add((fault.recovery, fault.rank))
        key = (fault.recovery, fault.rank, kind.value)
        if key in seen:
            raise SimulationError(
                f"duplicate recovery fault (recovery={fault.recovery}, "
                f"rank={fault.rank}, kind={kind.value})"
            )
        seen.add(key)
        normalised.append(fault)
    normalised.sort(key=lambda f: (f.recovery, f.rank, f.kind.value))
    return normalised


def _validate_network_faults(
    faults: list[NetworkFaultEvent],
) -> list[NetworkFaultEvent]:
    """Normalise, validate, and time-sort a network-fault schedule.

    Rejects unknown kinds, negative times/ranks, self-channels,
    non-positive delays on ``DELAY`` (or any delay elsewhere), exact
    duplicates, and heals that do not close an open partition. A
    trailing unhealed partition is allowed — it is a legitimate
    adversarial scenario (the transport eventually gives up on the
    dead pair with a :class:`~repro.errors.ChannelError`).
    """
    normalised: list[NetworkFaultEvent] = []
    seen: set[tuple[float, str, int, int]] = set()
    for fault in faults:
        kind = fault.kind
        if not isinstance(kind, NetworkFaultKind):
            try:
                kind = NetworkFaultKind(kind)
            except ValueError:
                known = ", ".join(k.value for k in NetworkFaultKind)
                raise SimulationError(
                    f"unknown network fault kind {fault.kind!r}; "
                    f"known: {known}"
                ) from None
            fault = replace(fault, kind=kind)
        if fault.time < 0:
            raise SimulationError(
                f"network fault time must be >= 0, got {fault.time} "
                f"({kind.value} {fault.src}->{fault.dst})"
            )
        if fault.src < 0 or fault.dst < 0:
            raise SimulationError(
                f"network fault ranks must be >= 0, got "
                f"{fault.src}->{fault.dst} ({kind.value})"
            )
        if fault.src == fault.dst:
            raise SimulationError(
                f"network fault targets the self-channel "
                f"{fault.src}->{fault.dst} ({kind.value}); processes "
                "do not message themselves"
            )
        if kind is NetworkFaultKind.DELAY:
            if fault.delay <= 0:
                raise SimulationError(
                    f"delay fault needs a positive delay, got "
                    f"{fault.delay} ({fault.src}->{fault.dst})"
                )
        elif fault.delay:
            raise SimulationError(
                f"delay={fault.delay} is only meaningful on "
                f"{NetworkFaultKind.DELAY.value!r} faults, not "
                f"{kind.value!r}"
            )
        key = (fault.time, kind.value, fault.src, fault.dst)
        if key in seen:
            raise SimulationError(
                f"duplicate network fault (time={fault.time}, "
                f"kind={kind.value}, {fault.src}->{fault.dst})"
            )
        seen.add(key)
        normalised.append(fault)
    normalised.sort(key=lambda f: (f.time, f.src, f.dst, f.kind.value))
    open_partitions: set[tuple[int, int]] = set()
    for fault in normalised:
        if fault.kind is NetworkFaultKind.PARTITION:
            if fault.pair in open_partitions:
                raise SimulationError(
                    f"partition of pair {fault.pair} at time "
                    f"{fault.time} is already open"
                )
            open_partitions.add(fault.pair)
        elif fault.kind is NetworkFaultKind.HEAL:
            if fault.pair not in open_partitions:
                raise SimulationError(
                    f"heal of pair {fault.pair} at time {fault.time} "
                    "closes no open partition"
                )
            open_partitions.discard(fault.pair)
    return normalised


def exponential_failures(
    n_processes: int,
    failure_rate: float,
    horizon: float,
    seed: int = 0,
    max_failures: int | None = None,
) -> FailurePlan:
    """Draw per-process exponential crash times up to *horizon*.

    Each process draws independent exponential inter-failure times with
    rate *failure_rate* (the paper's per-process λ); every arrival
    before *horizon* becomes a crash event.
    """
    if failure_rate < 0:
        raise SimulationError(f"failure_rate must be >= 0, got {failure_rate}")
    if horizon <= 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    crashes: list[CrashEvent] = []
    if failure_rate > 0:
        rng = np.random.default_rng(seed)
        for rank in range(n_processes):
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / failure_rate))
                if t >= horizon:
                    break
                crashes.append(CrashEvent(time=t, rank=rank))
    return FailurePlan(crashes=crashes, max_failures=max_failures)


def exponential_fault_plan(
    n_processes: int,
    horizon: float,
    failure_rate: float = 0.0,
    storage_fault_rate: float = 0.0,
    seed: int = 0,
    max_failures: int | None = None,
    kinds: tuple[FaultKind, ...] = (
        FaultKind.WRITE_FAIL,
        FaultKind.TORN_WRITE,
        FaultKind.BIT_ROT,
        FaultKind.TRANSIENT,
    ),
) -> FaultPlan:
    """Draw a combined crash + storage-fault schedule up to *horizon*.

    Crashes arrive per process at *failure_rate* exactly as in
    :func:`exponential_failures`; storage faults arrive per process at
    *storage_fault_rate* with kinds cycled deterministically from
    *kinds* by the same seeded generator, so the whole adversarial
    schedule is reproducible from ``(seed, rates, horizon)``.
    """
    if storage_fault_rate < 0:
        raise SimulationError(
            f"storage_fault_rate must be >= 0, got {storage_fault_rate}"
        )
    base = exponential_failures(
        n_processes, failure_rate, horizon, seed=seed, max_failures=max_failures
    )
    faults: list[StorageFaultEvent] = []
    if storage_fault_rate > 0:
        if not kinds:
            raise SimulationError("kinds must name at least one fault kind")
        rng = np.random.default_rng(seed + 1)
        for rank in range(n_processes):
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / storage_fault_rate))
                if t >= horizon:
                    break
                kind = kinds[int(rng.integers(len(kinds)))]
                faults.append(
                    StorageFaultEvent(time=t, rank=rank, kind=kind)
                )
    return FaultPlan(
        crashes=base.crashes,
        max_failures=max_failures,
        storage_faults=faults,
    )


def exponential_network_plan(
    n_processes: int,
    horizon: float,
    failure_rate: float = 0.0,
    drop_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    delay_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    partition_rate: float = 0.0,
    mean_delay: float = 1.0,
    mean_partition: float = 2.0,
    seed: int = 0,
    max_failures: int | None = None,
) -> FaultPlan:
    """Draw a combined crash + network-fault schedule up to *horizon*.

    Crashes arrive per process at *failure_rate* exactly as in
    :func:`exponential_failures`. One-shot frame faults arrive
    independently per **directed channel** at their per-kind rates
    (``drop_rate``, ``duplicate_rate``, ``delay_rate``,
    ``corrupt_rate``); delays draw exponential extra latency with mean
    *mean_delay*. Partitions arrive per **unordered pair** at
    *partition_rate*, each healing after an exponential duration with
    mean *mean_partition* (clipped below the pair's next partition, so
    windows never overlap). The whole schedule is reproducible from
    ``(seed, rates, horizon)``, which is what makes fault sweeps and
    chaos replays deterministic.
    """
    for name, rate in (
        ("drop_rate", drop_rate),
        ("duplicate_rate", duplicate_rate),
        ("delay_rate", delay_rate),
        ("corrupt_rate", corrupt_rate),
        ("partition_rate", partition_rate),
    ):
        if rate < 0:
            raise SimulationError(f"{name} must be >= 0, got {rate}")
    if mean_delay <= 0:
        raise SimulationError(f"mean_delay must be positive, got {mean_delay}")
    if mean_partition <= 0:
        raise SimulationError(
            f"mean_partition must be positive, got {mean_partition}"
        )
    base = exponential_failures(
        n_processes, failure_rate, horizon, seed=seed, max_failures=max_failures
    )
    faults: list[NetworkFaultEvent] = []
    rng = np.random.default_rng(seed + 2)
    one_shot_rates = (
        (NetworkFaultKind.DROP, drop_rate),
        (NetworkFaultKind.DUPLICATE, duplicate_rate),
        (NetworkFaultKind.DELAY, delay_rate),
        (NetworkFaultKind.CORRUPT, corrupt_rate),
    )
    for src in range(n_processes):
        for dst in range(n_processes):
            if src == dst:
                continue
            for kind, rate in one_shot_rates:
                if rate <= 0:
                    continue
                t = 0.0
                while True:
                    t += float(rng.exponential(1.0 / rate))
                    if t >= horizon:
                        break
                    delay = (
                        float(rng.exponential(mean_delay))
                        if kind is NetworkFaultKind.DELAY
                        else 0.0
                    )
                    faults.append(NetworkFaultEvent(
                        time=t, kind=kind, src=src, dst=dst, delay=delay,
                    ))
    if partition_rate > 0:
        for a in range(n_processes):
            for b in range(a + 1, n_processes):
                t = 0.0
                while True:
                    t += float(rng.exponential(1.0 / partition_rate))
                    if t >= horizon:
                        break
                    gap = float(rng.exponential(1.0 / partition_rate))
                    duration = max(
                        min(float(rng.exponential(mean_partition)), gap * 0.5),
                        1e-6,
                    )
                    faults.append(NetworkFaultEvent(
                        time=t, kind=NetworkFaultKind.PARTITION, src=a, dst=b,
                    ))
                    faults.append(NetworkFaultEvent(
                        time=t + duration, kind=NetworkFaultKind.HEAL,
                        src=a, dst=b,
                    ))
                    t += gap
    return FaultPlan(
        crashes=base.crashes,
        max_failures=max_failures,
        network_faults=faults,
    )
