"""Seeded input generation: the benchmark owns every byte the program sees.

Every workload is a list of campaign cells (or, for ``transform_sweep``,
transform *jobs*) built from frozen MiniMP text under ``bench/inputs/``
or from this module's own templates, with fault plans drawn from this
module's own ``random.Random(seed)``. Nothing here calls
``repro.lang.generator``, ``repro.lang.programs`` or
``repro.runtime.chaos``, so a later change to those cannot silently
change the load. The program under test receives only campaign-file
text (``dump_campaign``) and MiniMP text.

The same ``(workload, seed)`` always yields the same inputs. The cell
*shapes* (program, system size, steps, protocol) are fixed per workload
so that host cost is comparable across seeds; the seed draws the fault
plans, the generated programs' contents, and the cell order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.campaign import ScenarioSpec, dump_campaign
from repro.runtime import (
    CrashEvent,
    FaultKind,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)

DEFAULT_SEED = 20050607
WORKLOADS = (
    "steady_full", "steady_minimal", "chaos_recovery", "transform_sweep",
)
INPUTS_DIR = Path(__file__).resolve().parent / "inputs"

#: Simulator seed of every cell. Fixed, not drawn: the steady workloads'
#: committed reference digests are then valid for every benchmark seed.
SIM_SEED = 3


def source(name: str) -> str:
    """Frozen MiniMP text of the shipped program *name*."""
    return (INPUTS_DIR / f"{name}.mp").read_text()


@dataclass(frozen=True)
class TransformJob:
    """One ``transform_sweep`` job: source text in, one campaign cell out.

    ``twin`` names the earlier job with byte-identical source (this job
    is then a transform-cache hit), or ``None`` for a cold job.
    """

    label: str
    source: str
    n_processes: int
    params: dict
    twin: str | None = None


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run consumes.

    Exactly one of ``campaign_text`` (cell workloads) and ``jobs``
    (``transform_sweep``) is set. ``journal`` and ``rollup`` say which
    optional steps of the ``repro campaign`` call sequence the workload
    switches on. ``seed_invariant`` marks workloads whose cells do not
    depend on the seed beyond their order.
    """

    workload: str
    seed: int
    campaign_text: str | None = None
    jobs: tuple[TransformJob, ...] | None = None
    journal: bool = False
    rollup: bool = False
    seed_invariant: bool = False


# ----------------------------------------------------------------------
# steady_full / steady_minimal
# ----------------------------------------------------------------------

#: (program, n_processes, steps). Large n is the point (vector clocks and
#: byte accounting grow with n); steps are sized so a round costs about
#: 1.5 s on a 2-core sandbox. An odd number of cells puts the pooled
#: median of the (cell, round) walls inside the middle cell's own
#: samples, never on the gap between two cells' clusters; the three most
#: expensive cells (a quarter) cost about the same, so p90 lands inside
#: their cluster.
STEADY_CELLS = (
    ("token_ring", 64, 3), ("token_ring", 128, 3), ("token_ring", 192, 5),
    ("jacobi", 128, 8),
    ("stencil_1d", 64, 6), ("stencil_1d", 128, 5), ("stencil_1d", 192, 7),
    ("stencil_1d", 256, 4),
    ("stencil_halo", 64, 6), ("stencil_halo", 128, 4),
    ("stencil_halo", 192, 3),
)


def _steady(workload: str, seed: int, checkpoint_mode: str) -> Inputs:
    specs = [
        ScenarioSpec(
            label=f"{name}/n{n}",
            program=source(name),
            n_processes=n,
            params={"steps": steps},
            protocol="appl-driven",
            seed=SIM_SEED,
            checkpoint_mode=checkpoint_mode,
        )
        for name, n, steps in STEADY_CELLS
    ]
    random.Random(seed).shuffle(specs)
    return Inputs(
        workload=workload, seed=seed, campaign_text=dump_campaign(specs),
        seed_invariant=True,
    )


# ----------------------------------------------------------------------
# chaos_recovery
# ----------------------------------------------------------------------

CHAOS_PROGRAMS = ("ring_pipeline", "jacobi", "token_ring", "stencil_1d")
CHAOS_PROTOCOLS = (
    "appl-driven", "sas", "cl", "cic", "uncoordinated", "msg-logging",
)
CHAOS_SIZES = (4, 6, 8, 12)
CHAOS_STEPS = 8
CHAOS_PERIOD = 6.0
CHAOS_REPLICAS = 3
CHAOS_RETAIN_K = 4
#: ``cic`` restores from its own index map, which today survives neither
#: retention GC (a clean ``unrecoverable`` on roughly a third of drawn
#: cells) nor a lost checkpoint write (its index advances past the hole
#: and a later rollback restores an inconsistent cut: the final state
#: differs from the fault-free run's). A workload must hold only cells a
#: correct run completes, so ``cic`` cells keep unbounded storage and
#: draw no write faults until those two defects are fixed.
FRAGILE_PROTOCOLS = ("cic",)


def _step_time(name: str, n: int) -> float:
    """Approximate simulated seconds one iteration of *name* takes.

    Only used to aim fault times at the middle of a run; measured once
    on the frozen sources with the default ``RuntimeCosts``.
    """
    if name in ("ring_pipeline", "token_ring"):
        return 0.63 * n + 1.2
    return {"jacobi": 2.3, "stencil_1d": 4.15}[name]


def _other(rng: random.Random, n: int, rank: int) -> int:
    peer = rng.randrange(n - 1)
    return peer + 1 if peer >= rank else peer


def draw_fault_plan(
    rng: random.Random, n: int, horizon: float, write_faults: bool = True
) -> FaultPlan:
    """One crash plus network, recovery and storage faults, all survivable.

    The draw is bounded so that a correct system always recovers: at
    most two recovery-time disruptions per crash (the supervisor has
    four attempts), one healed partition far shorter than the
    transport's give-up horizon, and bit rot on at most one replica
    copy of a three-way replicated store (the quorum masks it; not every
    protocol degrades past a checkpoint that lost its quorum). A cell that still ends
    ``unrecoverable`` or errors is therefore a failure of the program
    under test, never of the draw.
    """
    one_shot = (
        NetworkFaultKind.DROP, NetworkFaultKind.DUPLICATE,
        NetworkFaultKind.DELAY, NetworkFaultKind.CORRUPT,
    )
    network: list[NetworkFaultEvent] = []
    seen = set()
    for _ in range(rng.randint(8, 16)):
        kind = rng.choice(one_shot)
        src = rng.randrange(n)
        dst = _other(rng, n, src)
        time = round(rng.uniform(0.0, horizon), 6)
        if (time, kind, src, dst) in seen:
            continue
        seen.add((time, kind, src, dst))
        delay = (
            round(rng.uniform(0.1, 2.0), 6)
            if kind is NetworkFaultKind.DELAY else 0.0
        )
        network.append(NetworkFaultEvent(
            time=time, kind=kind, src=src, dst=dst, delay=delay,
        ))
    a = rng.randrange(n)
    b = _other(rng, n, a)
    start = round(rng.uniform(0.0, horizon * 0.6), 6)
    length = round(rng.uniform(0.5, 3.0), 6)
    network.append(NetworkFaultEvent(
        time=start, kind=NetworkFaultKind.PARTITION, src=a, dst=b,
    ))
    network.append(NetworkFaultEvent(
        time=round(start + length, 6), kind=NetworkFaultKind.HEAL,
        src=a, dst=b,
    ))
    crash = CrashEvent(
        time=round(rng.uniform(0.35, 0.65) * horizon, 6),
        rank=rng.randrange(n),
    )
    recovery: list[RecoveryFaultEvent] = []
    taken = set()
    for _ in range(2):
        if rng.random() >= 0.3:
            continue
        kind = rng.choice(tuple(RecoveryFaultKind))
        rank = rng.randrange(n)
        if (rank, kind) in taken:
            continue
        taken.add((rank, kind))
        recovery.append(RecoveryFaultEvent(
            recovery=0, rank=rank, kind=kind, attempts=1,
        ))
    storage: list[StorageFaultEvent] = []
    for kind in (FaultKind.WRITE_FAIL, FaultKind.TORN_WRITE):
        if rng.random() < 0.25 and write_faults:
            storage.append(StorageFaultEvent(
                time=round(rng.uniform(0.0, horizon * 0.8), 6),
                rank=rng.randrange(n), kind=kind,
            ))
    if rng.random() < 0.4:
        storage.append(StorageFaultEvent(
            time=round(rng.uniform(0.0, crash.time), 6),
            rank=rng.randrange(n), kind=FaultKind.BIT_ROT,
            replica=rng.randrange(CHAOS_REPLICAS),
        ))
    return FaultPlan(
        crashes=[crash], max_failures=1, storage_faults=storage,
        network_faults=network, recovery_faults=recovery,
    )


def _chaos(seed: int) -> Inputs:
    """48 small faulted cells: every program x protocol, two sizes each."""
    rng = random.Random(seed)
    specs = []
    index = 0
    for name in CHAOS_PROGRAMS:
        for protocol in CHAOS_PROTOCOLS:
            for offset in (0, 2):
                n = CHAOS_SIZES[(index + offset) % len(CHAOS_SIZES)]
                horizon = CHAOS_STEPS * _step_time(name, n)
                fragile = protocol in FRAGILE_PROTOCOLS
                specs.append(ScenarioSpec(
                    label=f"{name}/n{n}/{protocol}",
                    program=source(name),
                    n_processes=n,
                    params={"steps": CHAOS_STEPS},
                    protocol=protocol,
                    period=CHAOS_PERIOD,
                    seed=SIM_SEED,
                    storage_replicas=CHAOS_REPLICAS,
                    retain_k=None if fragile else CHAOS_RETAIN_K,
                    fault_plan=draw_fault_plan(
                        rng, n, horizon, write_faults=not fragile
                    ),
                    observe=True,
                    checkpoint_mode=(
                        "full" if len(specs) % 2 == 0 else "pruned+delta"
                    ),
                ))
            index += 1
    rng.shuffle(specs)
    return Inputs(
        workload="chaos_recovery", seed=seed,
        campaign_text=dump_campaign(specs), journal=True, rollup=True,
    )


# ----------------------------------------------------------------------
# transform_sweep
# ----------------------------------------------------------------------

#: Diamond counts of the branchy jobs. Transform cost doubles per diamond
#: (2^k once-through paths), so the counts are fixed, never drawn: ten
#: nine-diamond programs are the most expensive cost cluster (a fifth of
#: the 48 jobs), with a short ramp below them.
BRANCHY_DIAMONDS = (6, 7, 8) + (9,) * 10
GENERATED_PROGRAMS = 24
SWEEP_PROCESSES = 4
SWEEP_STEPS = 3


def branchy_source(rng: random.Random, diamonds: int, tag: str) -> str:
    """*diamonds* sequential if/else diamonds, one checkpoint per arm.

    Balanced by construction (every path crosses *diamonds*
    checkpoints); the seed draws the arms' constants and the diamonds'
    parities, never the structure that sets the cost.
    """
    lines = [f"program branchy_{tag}():", "    x = init(myrank)"]
    for _ in range(diamonds):
        lines += [
            f"    if x % 2 == {rng.randrange(2)}:",
            "        checkpoint",
            f"        x = x + {rng.randint(1, 9)}",
            "    else:",
            "        checkpoint",
            f"        x = x + {rng.randint(1, 9)}",
        ]
    return "\n".join(lines) + "\n"


def _payload(rng: random.Random) -> str:
    return rng.choice(
        ["x", "combine(x, i)", "relax(x, myrank)", "combine(x, input(noise))"]
    )


def _local_work(rng: random.Random) -> list[str]:
    # A narrow cost range: simulated run time, and with it the overhead
    # ratio, should not swing with the seed.
    lines = [f"        compute({rng.randint(3, 4)})"]
    for index in range(rng.randint(0, 2)):
        lines.append(f"        t{index} = combine(x, {rng.randint(0, 99)})")
    return lines


#: Checkpoint positions of the two communication arms of a generated
#: program: before the first statement (0), between the two (1) or after
#: both (2). The second arm never checkpoints at its head, so the two
#: arms are misaligned, the straight cuts are not recovery lines, and
#: Phase III has to move checkpoints. Every combination is used equally
#: often under every seed (the seed only deals them out), so neither the
#: transform cost nor the simulated overhead swings with the seed.
PLACEMENTS = [(first, second) for first in (0, 1, 2) for second in (1, 2)]


def _place(arm: list[str], position: int) -> list[str]:
    return arm[:position] + ["            checkpoint"] + arm[position:]


def exchange_source(
    rng: random.Random, tag: str, placement: tuple[int, int]
) -> str:
    """Parity-paired neighbour exchange with misaligned checkpoints."""
    payload = _payload(rng)
    even = _place([
        f"            send(myrank + 1, {payload})",
        "            y = recv(myrank + 1)",
    ], placement[0])
    odd = _place([
        "            y = recv(myrank - 1)",
        f"            send(myrank - 1, {payload})",
    ], placement[1])
    lines = [
        f"program exchange_{tag}():", "    x = init(myrank)", "    i = 0",
        "    while i < steps:", "        if myrank % 2 == 0:", *even,
        "        else:", *odd, *_local_work(rng),
        "        x = relax(x, y)", "        i = i + 1",
    ]
    return "\n".join(lines) + "\n"


def ring_source(
    rng: random.Random, tag: str, placement: tuple[int, int]
) -> str:
    """Token ring with misaligned checkpoints."""
    payload = _payload(rng)
    head = _place([
        f"            send(1, {payload})",
        "            y = recv(nprocs - 1)",
    ], placement[0])
    rest = _place([
        "            y = recv(myrank - 1)",
        "            send((myrank + 1) % nprocs, relax(y, myrank))",
    ], placement[1])
    lines = [
        f"program ring_{tag}():", "    x = init(myrank)", "    i = 0",
        "    while i < steps:", "        if myrank == 0:", *head,
        "        else:", *rest, *_local_work(rng),
        "        x = combine(x, y)", "        i = i + 1",
    ]
    return "\n".join(lines) + "\n"


def _sweep(seed: int) -> Inputs:
    rng = random.Random(seed)
    params = {"steps": SWEEP_STEPS}
    branchy = [
        TransformJob(
            f"branchy{diamonds}_{index}",
            branchy_source(rng, diamonds, str(index)),
            SWEEP_PROCESSES, params,
        )
        for index, diamonds in enumerate(BRANCHY_DIAMONDS)
    ]
    generated = {}
    for make, kind in ((exchange_source, "exchange"), (ring_source, "ring")):
        placements = PLACEMENTS * (GENERATED_PROGRAMS // 2 // len(PLACEMENTS))
        rng.shuffle(placements)
        generated[kind] = [
            TransformJob(
                f"{kind}_{index}", make(rng, str(index), placement),
                SWEEP_PROCESSES, params,
            )
            for index, placement in enumerate(placements)
        ]
    shipped = [
        TransformJob(name, source(name), SWEEP_PROCESSES, params)
        for name in ("ring_unsafe", "jacobi_odd_even", "jacobi_plain")
    ]
    shipped.append(TransformJob(
        "grid_stencil_2d", source("grid_stencil_2d"), SWEEP_PROCESSES,
        {**params, "px": 2},
    ))
    # The repeated quarter has the same make-up under every seed; which
    # jobs of each kind are repeated is drawn.
    again = (
        rng.sample([j for j in branchy if j.label.startswith("branchy9")], 3)
        + rng.sample(generated["exchange"], 4)
        + rng.sample(generated["ring"], 4)
        + shipped[:1]
    )
    cold = branchy + generated["exchange"] + generated["ring"] + shipped
    rng.shuffle(cold)
    repeats = [
        TransformJob(
            f"{job.label}/again", job.source, job.n_processes, job.params,
            twin=job.label,
        )
        for job in again
    ]
    rng.shuffle(repeats)
    return Inputs(
        workload="transform_sweep", seed=seed, jobs=tuple(cold + repeats),
    )


def make_inputs(workload: str, seed: int = DEFAULT_SEED) -> Inputs:
    """The inputs of *workload* under *seed* (deterministic)."""
    if workload == "steady_full":
        return _steady(workload, seed, "full")
    if workload == "steady_minimal":
        return _steady(workload, seed, "pruned+delta")
    if workload == "chaos_recovery":
        return _chaos(seed)
    if workload == "transform_sweep":
        return _sweep(seed)
    raise ValueError(
        f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}"
    )
