"""Failure and fault injection.

A :class:`FaultPlan` is one pre-drawn adversarial schedule of four
event lists: process *crashes*; *stable-storage* faults — checkpoint
write failures, torn (partial) writes, silent bit rot, and transient
I/O errors; *network* faults — dropped, duplicated, delayed, and
corrupted frames plus timed partitions between rank pairs; and faults
that strike *recovery itself* — so recovery can be stressed, not just
triggered. Plans are generated ahead of the run (exponential arrivals
per process or per channel, or fixed schedules in tests), so
simulations stay reproducible and independent of execution order.

:data:`EVENT_LISTS` maps each list to its event class. An event's
dataclass fields, in declaration order, are both its JSON keys
(:func:`encode_event`, :func:`decode_event`) and its text form
(:func:`parse_event`): ``KIND`` followed by the other fields,
``:``-separated, trailing optional fields omitted.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import Callable

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
        replica: Which storage replica the fault hits (bit rot flips
            that replica's checksum record); below the replica count.
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


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

#: Lower bound of every numeric event field (an untargeted ``number``,
#: ``None``, is not checked).
_FLOORS = {
    "time": 0, "rank": 0, "src": 0, "dst": 0, "replica": 0,
    "recovery": 0, "number": 0, "attempts": 1,
}

#: Fields that say how hard an event strikes, not what or when: two
#: events that differ only in these are duplicates.
_MAGNITUDES = frozenset({"attempts", "delay"})


def _check_storage_faults(faults: list[StorageFaultEvent]) -> None:
    """Checkpoint 0 is the initial state, which is never a faulted write."""
    for fault in faults:
        if fault.number == 0 and fault.kind is not FaultKind.BIT_ROT:
            raise SimulationError(
                f"{fault.kind.value} fault at t={fault.time} targets "
                "checkpoint 0, the initial state, which is never a "
                "faulted write"
            )


def _check_network_faults(faults: list[NetworkFaultEvent]) -> None:
    """Reject self-channels, misplaced delays and unpaired partitions.

    A ``DELAY`` needs a positive delay and no other kind may carry one;
    a heal must close an open partition of its pair. A trailing
    unhealed partition is allowed — it is a legitimate adversarial
    scenario (the transport eventually gives up on the dead pair with a
    :class:`~repro.errors.ChannelError`).
    """
    open_partitions: set[tuple[int, int]] = set()
    for fault in faults:
        kind = fault.kind
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
        if kind is NetworkFaultKind.PARTITION:
            if fault.pair in open_partitions:
                raise SimulationError(
                    f"partition of pair {fault.pair} at time "
                    f"{fault.time} is already open"
                )
            open_partitions.add(fault.pair)
        elif kind is NetworkFaultKind.HEAL:
            if fault.pair not in open_partitions:
                raise SimulationError(
                    f"heal of pair {fault.pair} at time {fault.time} "
                    "closes no open partition"
                )
            open_partitions.discard(fault.pair)


def _check_recovery_faults(faults: list[RecoveryFaultEvent]) -> None:
    """Reject a second ``CRASH`` on a ``(recovery, rank)`` pair.

    The nested-failure analogue of a double crash: a rank cannot crash
    while it is already down (one ``CRASH`` fault models repeated
    nested crashes through ``attempts``).
    """
    crashing: set[tuple[int, int]] = set()
    for fault in faults:
        if fault.kind is RecoveryFaultKind.CRASH:
            if (fault.recovery, fault.rank) in crashing:
                raise SimulationError(
                    f"crash scheduled on already-crashed rank {fault.rank} "
                    f"in recovery {fault.recovery}"
                )
            crashing.add((fault.recovery, fault.rank))


@dataclass(frozen=True)
class EventList:
    """How one of a plan's event lists is typed, named, ordered and checked.

    Attributes:
        event: The event dataclass. Its fields, in declaration order,
            are the event's JSON keys and its text form's fields.
        what: The event's name in error messages.
        kinds: The enum its ``kind`` field takes (``None``: no kind).
        order: Sort key of the validated list.
        check: The list's own rules, run over the sorted list.
        kind_noun: The event's name in unknown-kind errors, if not
            *what* (a storage fault's is just "fault").
    """

    event: type
    what: str
    kinds: type[Enum] | None
    order: Callable
    check: Callable[[list], None] | None = None
    kind_noun: str | None = None

    def kind(self, value):
        """*value* — an enum member or its text — as this list's kind."""
        if isinstance(value, self.kinds):
            return value
        try:
            return self.kinds(value)
        except ValueError:
            known = ", ".join(k.value for k in self.kinds)
            raise SimulationError(
                f"unknown {self.kind_noun or self.what} kind {value!r}; "
                f"known: {known}"
            ) from None

    def validated(self, events: list) -> list:
        """*events* with kinds coerced, checked, and sorted.

        A tuple stands for the event built from it. Rejects negative
        (or, for ``attempts``, non-positive) fields, the list's own
        violations, and duplicates.
        """
        normalised = []
        for event in events:
            if not isinstance(event, self.event):
                event = self.event(*event)
            if self.kinds is not None:
                event = replace(event, kind=self.kind(event.kind))
            for name, value in encode_event(event).items():
                floor = _FLOORS.get(name)
                if floor is not None and value is not None and value < floor:
                    raise SimulationError(
                        f"{self.what} {name} must be >= {floor}, got {value}"
                    )
            normalised.append(event)
        normalised.sort(key=self.order)
        if self.check is not None:
            self.check(normalised)
        seen: set[tuple] = set()
        for event in normalised:
            identity = {
                name: value for name, value in encode_event(event).items()
                if name not in _MAGNITUDES
            }
            key = tuple(identity.values())
            if key in seen:
                detail = ", ".join(f"{k}={v}" for k, v in identity.items())
                raise SimulationError(f"duplicate {self.what} ({detail})")
            seen.add(key)
        return normalised


#: A plan's four event lists, in :class:`FaultPlan` field order: field
#: name -> how its events are typed, named, ordered and checked.
EVENT_LISTS = {
    "crashes": EventList(
        CrashEvent, "crash", None, order=lambda c: c.time,
    ),
    "storage_faults": EventList(
        StorageFaultEvent, "storage fault", FaultKind,
        order=lambda f: (f.time, f.rank),
        check=_check_storage_faults, kind_noun="fault",
    ),
    "network_faults": EventList(
        NetworkFaultEvent, "network fault", NetworkFaultKind,
        order=lambda f: (f.time, f.src, f.dst, f.kind.value),
        check=_check_network_faults,
    ),
    "recovery_faults": EventList(
        RecoveryFaultEvent, "recovery fault", RecoveryFaultKind,
        order=lambda f: (f.recovery, f.rank, f.kind.value),
        check=_check_recovery_faults,
    ),
}


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _optional_int(value) -> int | None:
    return None if value is None else int(value)


#: Decoder of every event field's JSON or text value but ``kind``
#: (which goes through :meth:`EventList.kind`).
_DECODERS = {
    "time": float,
    "delay": float,
    "rank": int,
    "src": int,
    "dst": int,
    "replica": int,
    "attempts": int,
    "recovery": int,
    "number": _optional_int,
}


def encode_event(event) -> dict:
    """*event* as its JSON object: every field in declaration order."""
    return {
        f.name: getattr(event, f.name).value if f.name == "kind"
        else getattr(event, f.name)
        for f in fields(event)
    }


def decode_event(name: str, data: dict):
    """One event of the *name* list from :func:`encode_event`'s form.

    Absent fields take their defaults; unknown keys are rejected (a
    typo inside an event must not silently drop the field it was meant
    to set).
    """
    spec = EVENT_LISTS[name]
    keys = [f.name for f in fields(spec.event)]
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise SimulationError(
            f"unknown {spec.what} key(s) {unknown} — "
            f"expected keys from {sorted(keys)}"
        )
    return spec.event(**{
        key: spec.kind(value) if key == "kind" else _DECODERS[key](value)
        for key, value in data.items()
    })


#: The list each text ``KIND`` belongs to.
_KIND_LISTS = {
    kind.value: name
    for name, spec in EVENT_LISTS.items() if spec.kinds is not None
    for kind in spec.kinds
}


def _text_fields(name: str) -> list:
    """The fields of a *name* event's text form: ``kind`` first."""
    return sorted(
        fields(EVENT_LISTS[name].event), key=lambda f: f.name != "kind"
    )


def parse_event(text: str, name: str | None = None) -> tuple[str, object]:
    """One event from its text form, as ``(list name, event)``.

    The text is the event's fields, ``:``-separated: ``KIND`` first,
    which names the list (crashes have no kind, so their list is given
    as *name*), then the others in declaration order. Trailing optional
    fields may be omitted and an empty field takes its default, so
    ``bit-rot:5:0::2`` rots rank 0's latest checkpoint on replica 2 at
    t = 5. Raises ``ValueError`` or ``TypeError`` on a malformed text.
    """
    parts = text.split(":")
    if name is None:
        name = _KIND_LISTS.get(parts[0])
        if name is None:
            raise ValueError(f"unknown fault kind {parts[0]!r}")
    keys = [f.name for f in _text_fields(name)]
    if len(parts) > len(keys):
        raise ValueError(f"too many fields in {text!r}")
    return name, decode_event(
        name, {key: part for key, part in zip(keys, parts) if part}
    )


def event_syntax(name: str) -> str:
    """The text form of a *name* event, e.g. ``KIND:TIME:SRC:DST[:DELAY]``."""
    syntax = ""
    optional = 0
    for f in _text_fields(name):
        part = f.name.upper()
        if f.default is MISSING:
            syntax += f":{part}" if syntax else part
        else:
            syntax += f"[:{part}"
            optional += 1
    return syntax + "]" * optional


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------


@dataclass
class FaultPlan:
    """Crashes plus storage, network and recovery faults: one schedule.

    ``max_failures`` bounds how many crashes the engine will actually
    apply (the rest are ignored), which keeps adversarial plans finite.
    Every event list is validated and sorted at construction
    (:data:`EVENT_LISTS`). The engine threads the ``storage_faults``
    through its event loop, so fault timing interleaves
    deterministically with crashes and messages, feeds the
    ``network_faults`` to the reliable transport's fault injector
    (:class:`repro.runtime.transport.NetworkFaultInjector`) and the
    ``recovery_faults`` to its recovery supervisor.
    """

    crashes: list[CrashEvent] = field(default_factory=list)
    max_failures: int | None = None
    storage_faults: list[StorageFaultEvent] = field(default_factory=list)
    network_faults: list[NetworkFaultEvent] = field(default_factory=list)
    recovery_faults: list[RecoveryFaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_failures is not None and self.max_failures < 0:
            raise SimulationError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )
        for name, spec in EVENT_LISTS.items():
            setattr(self, name, spec.validated(getattr(self, name)))

    @classmethod
    def single(cls, time: float, rank: int) -> "FaultPlan":
        """A single crash of *rank* at *time*."""
        return cls(crashes=[CrashEvent(time=time, rank=rank)])

    def effective(self) -> list[CrashEvent]:
        """The crashes the engine will apply, capped by ``max_failures``."""
        if self.max_failures is None:
            return list(self.crashes)
        return self.crashes[: self.max_failures]
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json_dict`'s JSON schema.

        The inverse of :meth:`to_json_dict`, shared by the CLI's
        ``--fault-plan`` loader and the campaign layer's
        :class:`~repro.campaign.spec.ScenarioSpec`. Unknown top-level
        keys are rejected (a typo like ``"netwrok_faults"`` must not
        silently disable the faults it was meant to inject), and so are
        unknown per-event keys.
        """
        known = {"max_failures", *EVENT_LISTS}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SimulationError(
                f"unknown top-level key(s) {unknown} — "
                f"expected keys from {sorted(known)}"
            )
        return cls(max_failures=_optional_int(data.get("max_failures")), **{
            name: [decode_event(name, entry) for entry in data.get(name, [])]
            for name in EVENT_LISTS
        })

    def to_json_dict(self) -> dict:
        """The plan in the CLI's ``--fault-plan`` JSON schema.

        The chaos harness archives shrunk counterexamples in this form
        so any dumped schedule replays verbatim with
        ``repro simulate --fault-plan``.
        """
        payload: dict = {}
        if self.max_failures is not None:
            payload["max_failures"] = self.max_failures
        for name in EVENT_LISTS:
            payload[name] = [encode_event(e) for e in getattr(self, name)]
        return payload


# ----------------------------------------------------------------------
# Drawing
# ----------------------------------------------------------------------


def _arrivals(rng, rate: float, horizon: float):
    """Exponential arrival times at *rate* before *horizon*, drawn lazily
    from the numpy generator *rng*."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            return
        yield t


def exponential_fault_plan(
    n_processes: int,
    horizon: float,
    *,
    failure_rate: float = 0.0,
    storage_fault_rate: float = 0.0,
    kinds: tuple[FaultKind, ...] = tuple(FaultKind),
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
    """Draw a crash, storage-fault and network-fault schedule to *horizon*.

    Every family arrives as a Poisson process and draws from its own
    generator (crashes from *seed*, storage faults from ``seed + 1``,
    network faults from ``seed + 2``), so a rate of one family never
    moves another's events, and the whole schedule is reproducible
    from ``(seed, rates, horizon)`` — which is what makes fault sweeps
    and chaos replays deterministic.

    - Crashes arrive per process at *failure_rate* (the paper's
      per-process λ).
    - Storage faults arrive per process at *storage_fault_rate*, each
      of a kind drawn uniformly from *kinds*.
    - One-shot frame faults arrive per **directed channel** at their
      per-kind rates (*drop_rate*, *duplicate_rate*, *delay_rate*,
      *corrupt_rate*); a delay draws exponential extra latency with
      mean *mean_delay*.
    - Partitions arrive per **unordered pair** at *partition_rate*,
      each healing after an exponential duration with mean
      *mean_partition* (clipped below the pair's next partition, so
      windows never overlap).
    """
    network_rates = {
        NetworkFaultKind.DROP: drop_rate,
        NetworkFaultKind.DUPLICATE: duplicate_rate,
        NetworkFaultKind.DELAY: delay_rate,
        NetworkFaultKind.CORRUPT: corrupt_rate,
    }
    rates = {
        "failure_rate": failure_rate,
        "storage_fault_rate": storage_fault_rate,
        "drop_rate": drop_rate,
        "duplicate_rate": duplicate_rate,
        "delay_rate": delay_rate,
        "corrupt_rate": corrupt_rate,
        "partition_rate": partition_rate,
    }
    for name, rate in rates.items():
        if rate < 0:
            raise SimulationError(f"{name} must be >= 0, got {rate}")
    for name, mean in (("mean_delay", mean_delay),
                       ("mean_partition", mean_partition)):
        if mean <= 0:
            raise SimulationError(f"{name} must be positive, got {mean}")
    if horizon <= 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    if storage_fault_rate > 0 and not kinds:
        raise SimulationError("kinds must name at least one fault kind")
    import numpy as np

    crashes: list[CrashEvent] = []
    if failure_rate > 0:
        rng = np.random.default_rng(seed)
        for rank in range(n_processes):
            crashes.extend(
                CrashEvent(time=t, rank=rank)
                for t in _arrivals(rng, failure_rate, horizon)
            )
    storage: list[StorageFaultEvent] = []
    if storage_fault_rate > 0:
        rng = np.random.default_rng(seed + 1)
        for rank in range(n_processes):
            for t in _arrivals(rng, storage_fault_rate, horizon):
                kind = kinds[int(rng.integers(len(kinds)))]
                storage.append(StorageFaultEvent(time=t, rank=rank, kind=kind))
    network: list[NetworkFaultEvent] = []
    rng = np.random.default_rng(seed + 2)
    for src in range(n_processes):
        for dst in range(n_processes):
            if src == dst:
                continue
            for kind, rate in network_rates.items():
                if rate <= 0:
                    continue
                for t in _arrivals(rng, rate, horizon):
                    delay = (
                        float(rng.exponential(mean_delay))
                        if kind is NetworkFaultKind.DELAY
                        else 0.0
                    )
                    network.append(NetworkFaultEvent(
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
                    network.append(NetworkFaultEvent(
                        time=t, kind=NetworkFaultKind.PARTITION, src=a, dst=b,
                    ))
                    network.append(NetworkFaultEvent(
                        time=t + duration, kind=NetworkFaultKind.HEAL,
                        src=a, dst=b,
                    ))
                    t += gap
    return FaultPlan(
        crashes=crashes,
        max_failures=max_failures,
        storage_faults=storage,
        network_faults=network,
    )
