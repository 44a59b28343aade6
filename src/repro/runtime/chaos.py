"""Chaos-schedule harness: randomized fault schedules, replayed and shrunk.

Property-based robustness testing for the network layer. A *schedule*
is a :class:`~repro.runtime.failures.FaultPlan` of crashes plus network
faults drawn **seed-deterministically** (the same ``(seed, config)``
always yields the same plan, and replaying a plan reproduces a
byte-identical :class:`~repro.runtime.engine.SimulationResult`). The
harness runs a schedule against a checkpointing protocol and checks the
paper's end-to-end contract:

1. the run **completes** (the reliable transport absorbs every fault);
2. every surviving straight cut ``R_i`` on stable storage is a
   **recovery line** (Definition 2.1 over the stored vector clocks —
   storage is truncated on rollback, so it holds exactly the surviving
   timeline);
3. the **final state** equals the fault-free baseline (the transport
   must hide the unreliable medium from the application entirely).

When a schedule fails, :func:`shrink_schedule` delta-debugs it down to
a minimal counterexample — repeatedly dropping event chunks while the
failure persists — which is only sound because replay is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.errors import ReproError, SimulationError, StorageError
from repro.runtime.engine import RunConfig, SimulationResult, SupervisorConfig
from repro.runtime.failures import (
    ONE_SHOT_NETWORK_KINDS,
    CrashEvent,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
)

#: The protocols the chaos harness exercises by default.
CHAOS_PROTOCOLS = ("appl-driven", "uncoordinated", "msg-logging")


@dataclass(frozen=True)
class ChaosConfig(RunConfig):
    """Knobs of the chaos draw and size of the simulated workload.

    The engine knobs every replay runs under (``retain_k`` retention
    pressure, ``backend``, ``checkpoint_mode``, … — verdicts are
    byte-identical across the last two) are the
    inherited :class:`~repro.runtime.engine.RunConfig` fields. ``seed``
    there is the *simulator* seed (inputs, latencies), not the schedule
    seed, so one workload meets many schedules.

    Attributes:
        n_processes: System size of each run.
        steps: The workload's ``steps`` parameter.
        horizon: Fault times are drawn in ``[0, horizon)``.
        max_events: Upper bound on one-shot frame faults per schedule.
        max_delay: Upper bound of a delay fault's extra latency.
        partition_probability: Chance a schedule contains one healed
            partition window.
        partition_duration: Upper bound of that window's length.
        crash_probability: Chance a schedule contains one crash.
        recovery_fault_probability: Per-slot chance of a recovery-time
            fault (nested crash, restore-read failure, lost control
            traffic) riding along with a drawn crash. ``0.0`` (default)
            draws none **and skips the extra rng draws entirely**, so
            legacy schedules stay byte-identical.
        max_recovery_faults: Recovery-fault slots per schedule.
    """

    n_processes: int = 3
    steps: int = 8
    horizon: float = 30.0
    max_events: int = 12
    max_delay: float = 2.0
    partition_probability: float = 0.5
    partition_duration: float = 3.0
    crash_probability: float = 0.5
    recovery_fault_probability: float = 0.0
    max_recovery_faults: int = 2


def draw_schedule(seed: int, config: ChaosConfig = ChaosConfig()) -> FaultPlan:
    """Draw one randomized, seed-deterministic fault schedule.

    The draw mixes one-shot frame faults on random directed channels,
    an optional healed partition window, and an optional crash. Exact
    duplicates (which :class:`FaultPlan` rejects) are skipped, so the
    result is always a valid plan.
    """
    rng = np.random.default_rng(seed)
    n = config.n_processes
    events: list[NetworkFaultEvent] = []
    seen: set[tuple[float, str, int, int]] = set()
    count = int(rng.integers(1, config.max_events + 1))
    for _ in range(count):
        kind = ONE_SHOT_NETWORK_KINDS[
            int(rng.integers(len(ONE_SHOT_NETWORK_KINDS)))
        ]
        src = int(rng.integers(n))
        dst = int(rng.integers(n - 1))
        if dst >= src:
            dst += 1
        time = round(float(rng.uniform(0.0, config.horizon)), 6)
        key = (time, kind.value, src, dst)
        if key in seen:
            continue
        seen.add(key)
        delay = (
            round(float(rng.uniform(0.1, config.max_delay)), 6)
            if kind is NetworkFaultKind.DELAY
            else 0.0
        )
        events.append(NetworkFaultEvent(
            time=time, kind=kind, src=src, dst=dst, delay=delay,
        ))
    if rng.random() < config.partition_probability:
        a = int(rng.integers(n))
        b = int(rng.integers(n - 1))
        if b >= a:
            b += 1
        start = round(float(rng.uniform(0.0, config.horizon * 0.6)), 6)
        length = round(float(rng.uniform(0.5, config.partition_duration)), 6)
        events.append(NetworkFaultEvent(
            time=start, kind=NetworkFaultKind.PARTITION, src=a, dst=b,
        ))
        events.append(NetworkFaultEvent(
            time=start + length, kind=NetworkFaultKind.HEAL, src=a, dst=b,
        ))
    crashes: list[CrashEvent] = []
    if rng.random() < config.crash_probability:
        crashes.append(CrashEvent(
            time=round(float(rng.uniform(1.0, config.horizon * 0.8)), 6),
            rank=int(rng.integers(n)),
        ))
    recovery_faults: list[RecoveryFaultEvent] = []
    if crashes and config.recovery_fault_probability > 0:
        # Guarded by probability > 0 so legacy configs consume exactly
        # the rng stream they always did (schedules stay byte-stable).
        kinds = (
            RecoveryFaultKind.CRASH,
            RecoveryFaultKind.READ_FAULT,
            RecoveryFaultKind.CONTROL_LOST,
        )
        taken: set[tuple[int, int, str]] = set()
        for _ in range(config.max_recovery_faults):
            if rng.random() >= config.recovery_fault_probability:
                continue
            kind = kinds[int(rng.integers(len(kinds)))]
            recovery = int(rng.integers(2))
            rank = int(rng.integers(n))
            attempts = int(rng.integers(1, 3))
            key = (recovery, rank, kind.value)
            if key in taken:
                continue
            taken.add(key)
            recovery_faults.append(RecoveryFaultEvent(
                recovery=recovery, rank=rank, kind=kind, attempts=attempts,
            ))
    return FaultPlan(
        crashes=crashes, max_failures=2, network_faults=events,
        recovery_faults=recovery_faults,
    )


@dataclass(frozen=True)
class ChaosOutcome:
    """Verdict of one schedule replay against one protocol.

    A clean ``UNRECOVERABLE`` verdict (the supervisor exhausted its
    retries or no intact line survived) counts as *ok* as long as the
    invariants that still apply hold: surviving straight cuts are
    recovery lines and retention GC never broke recoverability. The
    final-state and completion checks are vacuous for such runs.
    """

    ok: bool
    reason: str
    completed: bool
    recovery_lines_ok: bool
    state_ok: bool
    faults: int
    crashes: int
    unrecoverable: bool = False
    retention_ok: bool = True

    @classmethod
    def failure(cls, spec, message: str) -> "ChaosOutcome":
        """The failing verdict of a cell that never produced a result."""
        plan = spec.fault_plan
        return cls(
            ok=False,
            reason=message,
            completed=False,
            recovery_lines_ok=False,
            state_ok=False,
            faults=len(plan.network_faults),
            crashes=len(plan.effective()),
        )

    def describe(self) -> str:
        """One-line human-readable verdict."""
        status = "ok" if self.ok else f"FAIL ({self.reason})"
        if self.unrecoverable:
            status += " [unrecoverable]"
        return (
            f"{status}: {self.faults} network fault(s), "
            f"{self.crashes} crash(es)"
        )

    def to_json_dict(self) -> dict:
        """JSON-ready form (journalled by ``repro chaos --resume``)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChaosOutcome":
        """Rebuild a verdict from :meth:`to_json_dict`'s schema."""
        return cls(**data)


def storage_recovery_lines_consistent(
    result: SimulationResult, n_processes: int
) -> bool:
    """Whether every surviving straight cut on storage is a recovery line.

    Storage is truncated to the surviving timeline on every rollback,
    so — unlike the raw trace, which keeps discarded-timeline events —
    its per-number cuts are exactly the recovery lines a failure at
    run end could use. Checks Definition 2.1 (no member happened
    before another) over the stored vector clocks for every common
    checkpoint number.

    Only protocols claiming ``induces_recovery_lines`` are held to
    this (the application-driven protocol — it is the paper's central
    claim). Uncoordinated checkpointing may restore a dominoed
    non-straight cut and log-based recovery re-phases the restarted
    rank's timer; both legitimately leave inconsistent straight cuts
    behind while staying recoverable — their recoverability rests on
    per-rank intact checkpoints, which the retention invariant guards.
    """
    ranks = list(range(n_processes))
    storage = result.storage
    common = storage.max_common_number(ranks)
    for number in range(1, common + 1):
        try:
            members = [
                storage.latest_with_number(rank, number) for rank in ranks
            ]
        except StorageError:
            # A rank's surviving history skips this number (GC or
            # truncation) — there is no straight cut R_number to check.
            continue
        for a in members:
            for b in members:
                if a is not b and a.clock.happened_before(b.clock):
                    return False
    return True


def retention_invariant_holds(
    result: SimulationResult,
    n_processes: int,
    retain_k: int | None,
    checkpoint_mode: str,
) -> bool:
    """Whether retention GC preserved recoverability and its bound.

    Two checks: (1) every rank still holds at least one *intact*
    checkpoint — GC must never collect the last restorable state, even
    while evicting under pressure; (2) with ``retain_k`` set, per-rank
    occupancy stays within ``retain_k`` plus a slack for entries the
    safe-GC invariant refuses to evict (the protected degraded-fallback
    candidates; with minimal content additionally every kept entry's
    delta ancestors, each chain at most :data:`~repro.runtime.storage.
    DELTA_CHAIN_CAP` deep). Integrity is read via ``verify`` directly
    so the check cannot consume armed restore-read faults.
    """
    from repro.runtime.storage import DELTA_CHAIN_CAP

    storage = result.storage
    for rank in range(n_processes):
        if not any(storage.verify(c) for c in storage.history(rank)):
            return False
    if retain_k is not None:
        slack = SupervisorConfig().max_attempts + 2
        if checkpoint_mode != "full":
            # Chain-protection can pin the ancestors of the oldest kept
            # entry and of each protected fallback candidate.
            slack += (slack + 1) * DELTA_CHAIN_CAP
        for rank in range(n_processes):
            if storage.count(rank) > retain_k + slack:
                return False
    return True


_BASELINES: dict[str, dict] = {}


def _chaos_spec(
    label: str, plan: FaultPlan, protocol: str, config: ChaosConfig
):
    """The schedule *plan* against *protocol* as a campaign cell."""
    from repro.campaign.spec import ScenarioSpec
    from repro.lang.programs import program_source

    return ScenarioSpec(
        label=label,
        program=program_source("ring_pipeline"),
        n_processes=config.n_processes,
        params={"steps": config.steps},
        protocol=protocol,
        period=6.0,
        fault_plan=plan,
        **config.run_knobs(),
    )


def _baseline_env(spec) -> dict:
    """Final environment of *spec*'s fault-free run (cached per workload)."""
    baseline = replace(spec, fault_plan=None)
    key = baseline.content_hash()
    if key not in _BASELINES:
        _BASELINES[key] = baseline.build().run().final_env
    return _BASELINES[key]


def run_schedule(
    plan: FaultPlan,
    protocol: str = "appl-driven",
    config: ChaosConfig = ChaosConfig(),
    observer=None,
) -> ChaosOutcome:
    """Replay one schedule against one protocol and judge the outcome.

    A *config* whose ``transport`` has ``dedup=False`` runs the
    deliberately-broken transport the harness must be able to catch
    and shrink. ``observer`` is an optional
    :class:`~repro.obs.bus.EventBus` threaded into the replay so a
    failing schedule can be re-run under full causal tracing.
    """
    return _judge(_chaos_spec(protocol, plan, protocol, config), observer)


def _judge(spec, observer=None) -> ChaosOutcome:
    """Run one chaos cell (also the sweep's executor worker)."""
    plan = spec.fault_plan
    faults = len(plan.network_faults)
    crashes = len(plan.effective())
    baseline = _baseline_env(spec)
    sim = spec.build(observer=observer)
    try:
        result = sim.run()
    except ReproError as error:
        return ChaosOutcome.failure(spec, f"{type(error).__name__}: {error}")
    completed = bool(result.stats.completed)
    unrecoverable = result.verdict == "unrecoverable"
    lines_ok = (
        not sim.protocol.induces_recovery_lines
        or storage_recovery_lines_consistent(result, spec.n_processes)
    )
    retention_ok = retention_invariant_holds(
        result, spec.n_processes, spec.retain_k, spec.checkpoint_mode
    )
    state_ok = result.final_env == baseline
    if unrecoverable:
        # The supervisor gave up cleanly: recovery terminated in bounded
        # retries with a verdict. The run cannot complete or match the
        # baseline, but the storage invariants must still hold.
        ok = lines_ok and retention_ok
    else:
        ok = completed and lines_ok and state_ok and retention_ok
    if ok:
        reason = ""
    elif not lines_ok:
        reason = "a surviving straight cut is not a recovery line"
    elif not retention_ok:
        reason = "retention GC broke recoverability (or its bound)"
    elif not completed:
        reason = "run did not complete"
    else:
        reason = "final state diverged from the fault-free baseline"
    return ChaosOutcome(
        ok=ok,
        reason=reason,
        completed=completed,
        recovery_lines_ok=lines_ok,
        state_ok=state_ok,
        faults=faults,
        crashes=crashes,
        unrecoverable=unrecoverable,
        retention_ok=retention_ok,
    )


def chaos_sweep(
    seeds: range,
    protocols: tuple[str, ...] = CHAOS_PROTOCOLS,
    config: ChaosConfig = ChaosConfig(),
    artifacts_dir=None,
    jobs: int | None = 1,
    policy=None,
    journal_path=None,
    executor_fault_plan=None,
    executor_stats=None,
) -> dict[tuple[str, int], ChaosOutcome]:
    """Run every (protocol, seed) cell and collect the verdicts.

    Cells run on the campaign executor: *jobs* worker processes
    (``None``/0 = all cores), with verdicts merged deterministically by
    ``(protocol, seed)`` key — the returned mapping (order included) is
    **byte-identical for any worker count**, because every cell is an
    independent seed-deterministic replay.

    With *artifacts_dir* set, every failing cell automatically gets a
    diagnostic bundle written there via
    :func:`dump_failure_artifacts` — the vector-clock-stamped flight
    recorder, the verbatim schedule, and the ddmin-shrunk minimal
    counterexample. Artifacts are dumped from the coordinating process
    after the sweep, in cell order, so parallel runs produce the same
    files as serial ones.

    *policy* (an :class:`~repro.campaign.executor.ExecutorPolicy`)
    sets the per-cell timeout and retry budget (none: one attempt, no
    deadline); *journal_path* enables ``repro chaos --resume``
    (finished cells are served from the journal);
    *executor_fault_plan* is the deterministic crash/hang/raise
    injector, keyed by ``(protocol, seed)``. A cell whose worker dies
    past its retry budget yields a structured failing
    :class:`ChaosOutcome` instead of an unhandled
    ``BrokenProcessPool``. *executor_stats* (an
    :class:`~repro.campaign.executor.ExecutorStats`) accumulates the
    resilience counters in place.
    """
    from repro.campaign.executor import run_spec_cells

    cells = {
        (protocol, seed): _chaos_spec(
            f"{protocol}/seed{seed}", draw_schedule(seed, config),
            protocol, config,
        )
        for protocol in protocols
        for seed in seeds
    }
    outcomes, _timings = run_spec_cells(
        list(cells.items()),
        _judge,
        ChaosOutcome,
        jobs,
        policy=policy,
        journal_path=journal_path,
        fault_plan=executor_fault_plan,
        stats=executor_stats,
    )
    if artifacts_dir is not None:
        for (protocol, seed), outcome in outcomes.items():
            # Clean UNRECOVERABLE verdicts are ok but still archived:
            # the acceptance contract wants every such schedule shrunk
            # and replayable.
            if not outcome.ok or outcome.unrecoverable:
                dump_failure_artifacts(
                    cells[(protocol, seed)].fault_plan,
                    protocol=protocol,
                    config=config,
                    out_dir=artifacts_dir,
                    prefix=f"{protocol}-seed{seed}",
                )
    return outcomes


def dump_failure_artifacts(
    plan: FaultPlan,
    protocol: str,
    config: ChaosConfig,
    out_dir,
    prefix: str = "failure",
    shrink: bool = True,
    recorder_capacity: int = 4096,
    max_shrink_runs: int = 200,
) -> dict[str, object]:
    """Archive everything needed to diagnose a failing schedule.

    Re-runs the schedule with the observability subsystem attached and
    writes, into *out_dir* (created if needed):

    - ``<prefix>.flight.jsonl`` — the flight recorder's bounded,
      vector-clock-stamped event log of the failing replay (convertible
      with ``repro trace chrome``);
    - ``<prefix>.schedule.json`` — the schedule verbatim, replayable
      via ``repro simulate --fault-plan``;
    - ``<prefix>.shrunk.json`` — the ddmin-minimal counterexample (when
      *shrink* is set and the failure reproduces deterministically);
    - ``<prefix>.outcome.txt`` — the one-line verdict.

    Returns a dict mapping artifact names to their paths.
    """
    import json
    from pathlib import Path

    from repro.obs import Observability

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, object] = {}

    obs = Observability(capacity=recorder_capacity, keep_events=False)
    outcome = run_schedule(
        plan, protocol=protocol, config=config, observer=obs.bus
    )
    flight = out / f"{prefix}.flight.jsonl"
    obs.recorder.dump(flight)
    paths["flight_recorder"] = flight

    schedule = out / f"{prefix}.schedule.json"
    schedule.write_text(json.dumps(plan.to_json_dict(), indent=2) + "\n")
    paths["schedule"] = schedule

    verdict = out / f"{prefix}.outcome.txt"
    verdict.write_text(outcome.describe() + "\n")
    paths["outcome"] = verdict

    if shrink and (not outcome.ok or outcome.unrecoverable):
        if not outcome.ok:
            def still_fails(candidate: FaultPlan) -> bool:
                return not run_schedule(
                    candidate, protocol=protocol, config=config
                ).ok
        else:
            # An ok-but-unrecoverable schedule shrinks against "still
            # ends in the UNRECOVERABLE verdict", yielding the minimal
            # replayable terminal-recovery counterexample.
            def still_fails(candidate: FaultPlan) -> bool:
                return run_schedule(
                    candidate, protocol=protocol, config=config
                ).unrecoverable

        minimal = shrink_schedule(
            plan, still_fails, max_runs=max_shrink_runs
        )
        shrunk = out / f"{prefix}.shrunk.json"
        shrunk.write_text(
            json.dumps(minimal.to_json_dict(), indent=2) + "\n"
        )
        paths["shrunk"] = shrunk
    return paths


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _atoms(plan: FaultPlan) -> list[tuple[str, object]]:
    """Flatten a plan into removable atoms (tagged events)."""
    atoms: list[tuple[str, object]] = []
    atoms.extend(("crash", c) for c in plan.crashes)
    atoms.extend(("storage", f) for f in plan.storage_faults)
    atoms.extend(("network", f) for f in plan.network_faults)
    atoms.extend(("recovery", f) for f in plan.recovery_faults)
    return atoms


def _build(
    atoms: list[tuple[str, object]], max_failures: int | None
) -> FaultPlan | None:
    """Reassemble a plan from atoms; ``None`` when validation rejects it

    (e.g. a heal whose partition was removed — such candidates are
    simply skipped by the shrinker).
    """
    try:
        return FaultPlan(
            crashes=[e for tag, e in atoms if tag == "crash"],
            max_failures=max_failures,
            storage_faults=[e for tag, e in atoms if tag == "storage"],
            network_faults=[e for tag, e in atoms if tag == "network"],
            recovery_faults=[e for tag, e in atoms if tag == "recovery"],
        )
    except SimulationError:
        return None


def shrink_schedule(
    plan: FaultPlan,
    still_fails,
    max_runs: int = 500,
) -> FaultPlan:
    """Delta-debug *plan* to a locally-minimal failing schedule.

    *still_fails* is a predicate over :class:`FaultPlan`; the input
    plan must satisfy it. Works ddmin-style: first tries dropping
    large chunks of the event list, then single events, until no
    single-event removal keeps the failure — the classic 1-minimal
    guarantee. Deterministic replay makes the predicate stable, so the
    result is reproducible. ``max_runs`` bounds predicate evaluations.
    """
    current = _atoms(plan)
    runs = 0

    def failing(atoms: list[tuple[str, object]]) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        candidate = _build(atoms, plan.max_failures)
        if candidate is None:
            return False
        runs += 1
        return still_fails(candidate)

    if not still_fails(plan):
        raise SimulationError(
            "shrink_schedule needs a failing schedule to start from"
        )
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        shrunk_this_pass = True
        while shrunk_this_pass:
            shrunk_this_pass = False
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + chunk:]
                if candidate and failing(candidate):
                    current = candidate
                    shrunk_this_pass = True
                else:
                    start += chunk
        chunk //= 2
    result = _build(current, plan.max_failures)
    assert result is not None  # current always came from a valid build
    return result
