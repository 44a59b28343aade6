"""Chaos-schedule harness: randomized fault schedules, replayed and shrunk.

Property-based robustness testing for the network layer. A *schedule*
is a :class:`~repro.runtime.failures.FaultPlan` of crashes plus network
faults drawn **seed-deterministically** (the same ``(seed, config)``
always yields the same plan, and replaying a plan reproduces a
byte-identical :class:`~repro.runtime.config.SimulationResult`). The
harness runs a schedule against a checkpointing protocol and checks the
paper's end-to-end contract:

1. the run **completes** (the reliable transport absorbs every fault);
2. every surviving cut the protocol claims (its ``recovery_lines``)
   is a **recovery line** (Definition 2.1 over the stored vector
   clocks — storage is truncated on rollback, so it holds exactly the
   surviving timeline);
3. the **final state** equals the fault-free baseline (the transport
   must hide the unreliable medium from the application entirely).

Every replay is a campaign cell (:func:`~repro.campaign.executor
.run_campaign`) whose worker applies :func:`judge` to the finished run;
a cell's verdict is its outcome's ``error`` (``None``: the contract
held). The final-state check needs the cell's fault-free twin, which
the coordinating process runs once per workload.

When a schedule fails, :func:`shrink_schedule` delta-debugs it down to
a minimal counterexample — repeatedly dropping event chunks while the
failure persists — which is only sound because replay is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.causality.cuts import first_causal_pair
from repro.errors import SimulationError
from repro.runtime.config import RunConfig, SimulationResult
from repro.runtime.failures import (
    EVENT_LISTS,
    ONE_SHOT_NETWORK_KINDS,
    CrashEvent,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
)

#: :func:`judge`'s reason when a claimed cut is not a recovery line.
CUT_BROKEN = "a surviving claimed cut is not a recovery line"

#: Per family of claimed cuts, the key that groups a rank's stored
#: checkpoints into cuts (``None``: in none; the program's own ``app``
#: checkpoints are in no protocol's tag cut).
LINE_KEYS = {
    "number": lambda c: c.number,
    "tag": lambda c: None if c.tag == "app" else c.tag,
}


@dataclass(frozen=True)
class ChaosConfig(RunConfig):
    """Knobs of the chaos draw and size of the simulated workload.

    The engine knobs every replay runs under (``retain_k`` retention
    pressure, ``backend``, ``checkpoint_mode``, … — verdicts are
    byte-identical across the last two) are the
    inherited :class:`~repro.runtime.config.RunConfig` fields. ``seed``
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
    import numpy as np

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


def storage_recovery_lines_consistent(
    result: SimulationResult, n_processes: int, family: str = "number"
) -> bool:
    """Whether every surviving cut of *family* on storage is a recovery line.

    Storage is truncated to the surviving timeline on every rollback,
    so — unlike the raw trace, which keeps discarded-timeline events —
    its cuts are exactly the recovery lines a failure at run end could
    use. Groups each rank's history by :data:`LINE_KEYS` (a re-taken
    checkpoint's latest instance wins) and checks Definition 2.1 (no
    member happened before another,
    :func:`~repro.causality.cuts.first_causal_pair`) over the stored
    vector clocks of every cut all ranks still store.
    """
    key = LINE_KEYS[family]
    cuts = [
        {key(member): member for member in result.storage.history(rank)}
        for rank in range(n_processes)
    ]
    common = set(cuts[0]).intersection(*cuts[1:]) - {None}
    return all(
        first_causal_pair(
            {rank: cut[line].clock for rank, cut in enumerate(cuts)}
        ) is None
        for line in common
    )


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
    from repro.runtime.recovery import MAX_RECOVERY_ATTEMPTS
    from repro.runtime.storage import DELTA_CHAIN_CAP

    storage = result.storage
    for rank in range(n_processes):
        if not any(storage.verify(c) for c in storage.history(rank)):
            return False
    if retain_k is not None:
        slack = MAX_RECOVERY_ATTEMPTS + 2
        if checkpoint_mode != "full":
            # Chain-protection can pin the ancestors of the oldest kept
            # entry and of each protected fallback candidate.
            slack += (slack + 1) * DELTA_CHAIN_CAP
        for rank in range(n_processes):
            if storage.count(rank) > retain_k + slack:
                return False
    return True


#: The verdict of a completed replay whose state is not its twin's.
DIVERGED = "final state diverged from the fault-free baseline"


def judge(spec, sim, result) -> str | None:
    """The storage half of a chaos cell's verdict (``None``: it held).

    Runs in the campaign worker after a clean run — one that
    completed, or whose supervisor gave up cleanly (an
    ``unrecoverable`` verdict: the storage invariants still apply):
    every surviving cut of the family the protocol claims is a recovery
    line, then retention kept recoverability and its bound.
    """
    family = sim.protocol.recovery_lines
    if family is not None and not storage_recovery_lines_consistent(
        result, spec.n_processes, family
    ):
        return CUT_BROKEN
    if not retention_invariant_holds(
        result, spec.n_processes, spec.retain_k, spec.checkpoint_mode
    ):
        return "retention GC broke recoverability (or its bound)"
    return None


def unrecoverable(outcome) -> bool:
    """Whether a chaos cell's run ended in a clean ``unrecoverable``."""
    return bool(outcome.stats and outcome.stats["unrecoverable"])


def describe(outcome, plan: FaultPlan) -> str:
    """One-line human-readable verdict of *outcome*, the replay of *plan*."""
    status = "ok" if outcome.error is None else f"FAIL ({outcome.error})"
    if unrecoverable(outcome):
        status += " [unrecoverable]"
    return (
        f"{status}: {len(plan.network_faults)} network fault(s), "
        f"{len(plan.effective())} crash(es)"
    )


def cell_label(seed: int, protocol: str) -> str:
    """The campaign label of a sweep cell (``workload/protocol``)."""
    return f"seed{seed}/{protocol}"


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


def _twin_env(spec) -> dict:
    """Final environment of *spec*'s fault-free twin."""
    return replace(spec, fault_plan=None).build().run().final_env


def _against_twin(outcome, twin_env: dict):
    """*outcome* with the final-state half of its verdict applied."""
    if (
        outcome.error is None
        and not unrecoverable(outcome)
        and outcome.final_env != twin_env
    ):
        return replace(outcome, error=DIVERGED)
    return outcome


def _replay(spec, twin_env: dict, observer=None):
    """Run and judge one chaos cell in-process."""
    from repro.campaign.executor import _campaign_cell

    return _against_twin(_campaign_cell(spec, judge, observer), twin_env)


def run_schedule(
    plan: FaultPlan,
    protocol: str = "appl-driven",
    config: ChaosConfig = ChaosConfig(),
    observer=None,
):
    """Replay one schedule against one protocol and judge the outcome.

    Returns the cell's :class:`~repro.campaign.executor.CellOutcome`;
    its ``error`` is the verdict. A *config* whose ``transport`` has
    ``dedup=False`` runs the deliberately-broken transport the harness
    must be able to catch and shrink. ``observer`` is an optional
    :class:`~repro.obs.bus.EventBus` threaded into the replay so a
    failing schedule can be re-run under full causal tracing.
    """
    spec = _chaos_spec(protocol, plan, protocol, config)
    return _replay(spec, _twin_env(spec), observer)


def chaos_sweep(
    seeds: range,
    protocols: tuple[str, ...] | None = None,
    config: ChaosConfig = ChaosConfig(),
    artifacts_dir=None,
    jobs: int | None = 1,
    policy=None,
    journal_path=None,
):
    """Run every (protocol, seed) cell as a judged campaign.

    *protocols* defaults to :data:`~repro.protocols.RECOVERING_PROTOCOLS`.
    Returns the :class:`~repro.campaign.executor.CampaignResult`, one
    cell per :func:`cell_label`, protocol-major; its deterministic
    artifact is byte-identical for any *jobs* count and across retried
    and journal-resumed runs, because every cell is an independent
    seed-deterministic replay. *policy* and *journal_path* (``repro
    chaos --resume``) are :func:`~repro.campaign.executor.run_campaign`'s.

    With *artifacts_dir* set, every failing or unrecoverable cell gets
    a diagnostic bundle written there via :func:`dump_failure_artifacts`
    — the vector-clock-stamped flight recorder, the verbatim schedule,
    and the ddmin-shrunk minimal counterexample — from the
    coordinating process after the sweep, in cell order, so parallel
    runs produce the same files as serial ones.
    """
    from repro.campaign.executor import run_campaign
    from repro.protocols import RECOVERING_PROTOCOLS

    if protocols is None:
        protocols = RECOVERING_PROTOCOLS
    cells = {
        (protocol, seed): _chaos_spec(
            cell_label(seed, protocol), draw_schedule(seed, config),
            protocol, config,
        )
        for protocol in protocols
        for seed in seeds
    }
    result = run_campaign(
        list(cells.values()),
        jobs,
        policy=policy,
        journal_path=journal_path,
        judge=judge,
    )
    twins: dict[str, dict] = {}
    for (protocol, seed), spec in cells.items():
        if protocol not in twins:
            twins[protocol] = _twin_env(spec)
        outcome = _against_twin(result.cells[spec.label], twins[protocol])
        result.cells[spec.label] = outcome
        if artifacts_dir is not None and (
            outcome.error is not None or unrecoverable(outcome)
        ):
            # A clean unrecoverable verdict is archived too: every such
            # schedule is shrunk and replayable.
            dump_failure_artifacts(
                spec.fault_plan,
                protocol=protocol,
                config=config,
                out_dir=artifacts_dir,
                prefix=f"{protocol}-seed{seed}",
            )
    return result


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

    spec = _chaos_spec(protocol, plan, protocol, config)
    twin = _twin_env(spec)

    def replay(candidate: FaultPlan, observer=None):
        return _replay(replace(spec, fault_plan=candidate), twin, observer)

    obs = Observability(capacity=recorder_capacity)
    outcome = replay(plan, obs.bus)
    flight = out / f"{prefix}.flight.jsonl"
    obs.recorder.dump(flight)
    paths["flight_recorder"] = flight

    schedule = out / f"{prefix}.schedule.json"
    schedule.write_text(json.dumps(plan.to_json_dict(), indent=2) + "\n")
    paths["schedule"] = schedule

    verdict = out / f"{prefix}.outcome.txt"
    verdict.write_text(describe(outcome, plan) + "\n")
    paths["outcome"] = verdict

    if shrink and (outcome.error is not None or unrecoverable(outcome)):
        if outcome.error is not None:
            def still_fails(candidate: FaultPlan) -> bool:
                return replay(candidate).error is not None
        else:
            # An unrecoverable schedule whose contract held shrinks
            # against "still ends in the UNRECOVERABLE verdict",
            # yielding the minimal replayable terminal-recovery
            # counterexample.
            def still_fails(candidate: FaultPlan) -> bool:
                return unrecoverable(replay(candidate))

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
    """Flatten a plan into removable atoms: (event list name, event)."""
    return [(name, e) for name in EVENT_LISTS for e in getattr(plan, name)]


def _build(
    atoms: list[tuple[str, object]], max_failures: int | None
) -> FaultPlan | None:
    """Reassemble a plan from atoms; ``None`` when validation rejects it

    (e.g. a heal whose partition was removed — such candidates are
    simply skipped by the shrinker).
    """
    try:
        return FaultPlan(max_failures=max_failures, **{
            name: [e for tag, e in atoms if tag == name]
            for name in EVENT_LISTS
        })
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
