"""The local run-ahead of the indexed scheduler changes nothing visible.

Under a coordination-free protocol (one that overrides neither
``on_control`` nor ``on_timer``) the compiled backend lets a READY rank
that is not the scheduler minimum keep executing its pure-local
statements, and only its next send / receive / checkpoint / compute
goes through the heap. The reference scheduler and the reference
backend never do this, so they are the oracle: traces, stats
(``steps`` included), final environments, storage contents and errors
must be identical across scheduler x backend — under faults and with
compute events recorded — and an active protocol's timer or control message that lands between
two local statements of its target must still see the state the
strict-minimum order gives it.
"""

import itertools

import pytest

from repro.errors import ReproError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.programs import default_params, load_program, program_names
from repro.protocols import make_protocol
from repro.runtime import (
    CrashEvent,
    FaultKind,
    FaultPlan,
    RuntimeCosts,
    Simulation,
    StorageFaultEvent,
)
from repro.runtime.encoding import checkpoint_record
from repro.runtime.hooks import ProtocolHooks

from .reference_scheduler import ENGINES
from .test_backend_differential import run_fingerprint

VARIANTS = tuple(
    itertools.product(("indexed", "reference"), ("compiled", "reference"))
)


def fingerprint(sim, result):
    """Everything observable about a run: trace, stats, env, storage."""
    stored = tuple(
        (
            checkpoint_record(checkpoint),
            checkpoint.payload_kind,
            checkpoint.payload_bytes,
            sim.storage.verify(checkpoint),
        )
        for rank in range(sim.n)
        for checkpoint in sim.storage.history(rank)
    )
    # Events (clocks included), stats, final env, completion time.
    return run_fingerprint(result)[:4] + (stored,)


def outcome(base, n, variant, protocol=lambda: None, **kwargs):
    """The fingerprint of one run of a shared AST, or its error.

    *protocol* is a factory: protocol objects carry state across runs.
    """
    scheduler, backend = variant
    try:
        sim = ENGINES[scheduler](
            ast.clone(base), n, backend=backend, protocol=protocol(),
            **kwargs
        )
        return fingerprint(sim, sim.run())
    except ReproError as error:
        return type(error).__name__, str(error)


def assert_all_variants_agree(base, n, **kwargs):
    first = outcome(base, n, VARIANTS[0], **kwargs)
    for variant in VARIANTS[1:]:
        assert outcome(base, n, variant, **kwargs) == first, variant
    return first


def faults(crash: bool) -> FaultPlan:
    return FaultPlan(
        crashes=[CrashEvent(time=4.0, rank=1)] if crash else [],
        storage_faults=[
            StorageFaultEvent(time=2.0, rank=0, kind=FaultKind.WRITE_FAIL),
            StorageFaultEvent(time=3.0, rank=2, kind=FaultKind.BIT_ROT),
        ],
    )


#: Every shipped program; the pairwise ones fail at n = 3, and the
#: error and its rank are part of the contract.
MATRIX = [(name, n) for n in (3, 16, 64) for name in program_names()]


class TestSchedulerTimesBackend:
    @pytest.mark.parametrize("name,n", MATRIX)
    @pytest.mark.parametrize("protocol", ("none", "appl-driven"))
    def test_faulted_runs_identical(self, name, n, protocol):
        result = assert_all_variants_agree(
            load_program(name), n,
            params=default_params(name, steps=3),
            protocol=lambda: make_protocol(protocol),
            # Without a protocol nothing recovers a crash.
            fault_plan=faults(crash=protocol == "appl-driven"),
            checkpoint_mode="pruned+delta",
            seed=11,
        )
        if name == "stencil_halo" and n > 3 and protocol == "appl-driven":
            stats = result[1]
            assert stats["failures"] == stats["rollbacks"] == 1
            assert stats["storage_write_failures"] == 1
            assert stats["bit_rot_injected"] == 1
            assert stats["completed"]

    def test_default_knobs_match_too(self):
        result = assert_all_variants_agree(
            load_program("stencil_halo"), 16,
            params=default_params("stencil_halo", steps=4),
            protocol=lambda: make_protocol("appl-driven"),
            fault_plan=faults(crash=True),
        )
        assert result[1]["completed"]

    def test_heap_dispatches_are_under_half_of_the_steps(self):
        sim = Simulation(
            load_program("stencil_halo"), 64,
            params=default_params("stencil_halo", steps=3),
            protocol=make_protocol("appl-driven"),
        )
        dispatches = []
        next_item = sim._next_item

        def counting():
            dispatches.append(1)
            return next_item()

        sim._next_item = counting
        result = sim.run()
        assert result.stats.completed
        assert 0 < len(dispatches) < result.stats.steps / 2


ERROR_ORDER_SOURCE = """\
program p():
    if myrank == 0:
        x = 1
        x = 2
        x = 3
        x = 4
        x = y / 0
    else:
        y = undefined_name + 1
"""

RUNAWAY_SOURCE = """\
program p():
    x = 0
    if myrank == 0:
        while 1 == 1:
            x = x + 1
    else:
        send(0, x)
"""


class TestErrorsAndBudget:
    @pytest.mark.parametrize("variant", VARIANTS, ids="-".join)
    def test_error_of_the_earliest_turn_wins(self, variant):
        """Rank 0 reaches its division at t = 0.04, rank 1 fails at 0.

        A rank running ahead must not report first what it executed
        early: the error is held until the rank's own turn.
        """
        assert outcome(parse(ERROR_ORDER_SOURCE), 2, variant) == (
            "SimulationError",
            "P1: unbound variable 'undefined_name' at line 9",
        )

    def test_a_held_error_does_surface(self):
        source = ERROR_ORDER_SOURCE.replace("undefined_name + 1", "7")
        for variant in VARIANTS:
            kind, text = outcome(parse(source), 2, variant)
            assert kind == "SimulationError" and text.startswith("P0: ")

    @pytest.mark.parametrize("variant", VARIANTS, ids="-".join)
    def test_budget_guard_fires_for_a_runaway_rank(self, variant):
        kind, text = outcome(parse(RUNAWAY_SOURCE), 3, variant, max_steps=5000)
        assert kind == "SimulationError"
        assert text.startswith("step budget exceeded (5000)")

    def test_steps_are_counted_alike_up_to_the_budget(self):
        base = load_program("stencil_halo")
        kwargs = dict(
            params=default_params("stencil_halo", steps=2),
            protocol=lambda: make_protocol("appl-driven"),
        )
        reference = outcome(base, 8, ("reference", "reference"), **kwargs)
        steps = reference[1]["steps"]
        for variant in VARIANTS:
            exact = outcome(base, 8, variant, max_steps=steps, **kwargs)
            assert exact == reference
            kind, text = outcome(
                base, 8, variant, max_steps=steps - 1, **kwargs
            )
            assert kind == "SimulationError" and "step budget" in text


# Thirty local statements (0.6 simulated seconds) between exchanges: a
# 0.05 s control hop, a timer, a crash or a cutoff lands inside a run.
LOCAL_RUNS_SOURCE = """\
program p():
    x = init(myrank)
    i = 0
    while i < 6:
        checkpoint
        j = 0
        while j < 30:
            x = x + j
            j = j + 1
        send((myrank + 1) % nprocs, x)
        y = recv((myrank + nprocs - 1) % nprocs)
        x = combine(x, y)
        i = i + 1
"""


class TestCrashInsideALocalRun:
    @pytest.mark.parametrize("when", (1.3, 1.5049, 3.6, 4.4))
    def test_crash_between_two_local_statements(self, when):
        result = assert_all_variants_agree(
            parse(LOCAL_RUNS_SOURCE), 4,
            protocol=lambda: make_protocol("appl-driven"),
            fault_plan=FaultPlan(crashes=[CrashEvent(time=when, rank=3)]),
        )
        stats = result[1]
        assert stats["completed"] and stats["rollbacks"] == 1
        assert stats["lost_work"] > 0

    def test_crash_at_the_instant_of_a_statement(self):
        """Quarter-second statements put every clock exactly on 2.0.

        The crash sorts ahead of a rank's statement at the same time, so
        no rank may have executed its 2.0 statement by then.
        """
        result = assert_all_variants_agree(
            parse(LOCAL_RUNS_SOURCE), 4,
            protocol=lambda: make_protocol("appl-driven"),
            costs=RuntimeCosts(
                local_statement=0.25, checkpoint_overhead=0.5,
                recovery_overhead=1.0,
            ),
            fault_plan=FaultPlan(crashes=[CrashEvent(time=2.0, rank=0)]),
        )
        assert result[1]["rollbacks"] == 1
        # Every rank stood at 2.0, its checkpoint (taken at 1.0) one
        # second behind.
        assert result[1]["lost_work"] == 4 * 1.0


class TestProtocolsThatAct:
    @pytest.mark.parametrize(
        "protocol", ("sas", "cl", "uncoordinated", "cic", "msg-logging")
    )
    def test_mid_run_snapshot_is_the_strict_minimum_one(self, protocol):
        """The protocol's checkpoints catch ranks between local statements.

        Their snapshots (compared through the storage contents) must be
        those of the reference scheduler, which never runs ahead.
        """
        result = assert_all_variants_agree(
            parse(LOCAL_RUNS_SOURCE), 4,
            protocol=lambda: make_protocol(protocol, period=1.3),
            fault_plan=FaultPlan(crashes=[CrashEvent(time=3.21, rank=2)]),
        )
        stats, stored = result[1], result[4]
        assert stats["completed"] and stats["checkpoints"] > 0
        mid_run = [
            env["j"]
            for record, *_ in stored
            if record[12] not in ("initial", "app")
            for env in [dict(record[3])]
            if 0 < env.get("j", 0) < 30
        ]
        assert mid_run

    def test_control_sent_from_a_hook_finds_the_strict_state(self):
        """No timer, and no control message until a checkpoint sends one.

        Only the protocol's class says that it reacts to control
        messages; the engine must not run anybody ahead on the strength
        of an empty control queue.
        """

        class Echo(ProtocolHooks):
            name = "echo"

            def on_checkpoint(self, sim, rank, number):
                if rank == 0 and number < 4:
                    now = sim.procs[rank].clock
                    sim.send_control(0, 2, "snap", {}, now + 0.2)

            def on_control(self, sim, message):
                sim.take_checkpoint(message.dst, message.arrival_time, "echo")

        result = assert_all_variants_agree(
            parse(LOCAL_RUNS_SOURCE), 4, protocol=Echo
        )
        echoes = [record for record, *_ in result[4] if record[12] == "echo"]
        assert any(0 < dict(echo[3])["j"] < 30 for echo in echoes)

    def test_outstanding_timer_keeps_the_strict_order(self):
        """A pending timer switches the run-ahead off, whatever the class.

        The hook is bound on the instance, where the class test that
        declares a protocol coordination-free cannot see it.
        """

        class Ticking(ProtocolHooks):
            name = "ticking"

            def __init__(self):
                self.on_timer = self.snap

            def on_start(self, sim):
                sim.schedule_timer(1, 1.505, "tick")

            def snap(self, sim, rank, tag, time):
                sim.take_checkpoint(rank, time, tag="tick")

        result = assert_all_variants_agree(
            parse(LOCAL_RUNS_SOURCE), 4, protocol=Ticking
        )
        ticks = [record for record, *_ in result[4] if record[12] == "tick"]
        assert len(ticks) == 1 and 0 < dict(ticks[0][3])["j"] < 30
