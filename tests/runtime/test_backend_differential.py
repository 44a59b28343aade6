"""Differential tests: compiled backend vs the tree-walking reference.

The closure compiler must be a pure performance change — every
observable artifact (trace events with their vector clocks, stats,
final state, completion time, normalised JSONL event logs, campaign
cell artifacts, chaos verdicts) must be byte-identical to the
tree-walking interpreter it replaced. These tests drive both backends
through a workload x protocol x failure-plan grid, the @quick campaign
matrix, and the full 420-schedule chaos sweep, and compare everything;
a table of failing programs, driven rank by rank without an engine,
pins that errors keep their text and their execution point.

The one sanctioned divergence surface is the campaign cell's
``spec_hash``: the backend is part of a spec's content hash (a cached
result records which executable form produced it), so cross-backend
cell comparisons strip that single field and demand byte-identity on
everything else.
"""

import dataclasses

import pytest

from repro.bench.workloads import standard_workloads, strip_checkpoints
from repro.campaign import quick_campaign
from repro.campaign.executor import _campaign_cell
from repro.errors import RecoveryError
from repro.lang import ast_nodes as ast
from repro.lang.compile import compile_program
from repro.lang.parser import parse
from repro.protocols import make_protocol
from repro.runtime import FaultPlan, RuntimeCosts, Simulation
from repro.runtime.chaos import ChaosConfig, chaos_sweep
from repro.runtime.failures import CrashEvent, exponential_fault_plan
from repro.runtime.inputs import InputProvider
from repro.runtime.interpreter import ProcessInterpreter


def run_fingerprint(result, jsonl=None):
    """Everything observable about a finished run, as comparable data.

    Unlike the scheduler differential, the event tuple includes the
    full vector-clock components: the compiled backend reimplements the
    statement loop, so clock propagation is exactly the kind of thing a
    subtle compilation bug would skew.
    """
    events = tuple(
        (
            e.seq, e.time, e.process, e.kind.value, e.stmt_id,
            e.message_id, e.peer, e.checkpoint_number,
            e.clock.components,
        )
        for e in result.trace.events
    )
    return (
        events,
        result.stats.as_dict(),
        result.final_env,
        result.completion_time,
        jsonl,
    )


def run_once(base, n_processes, params, protocol, make_plan, backend):
    """One observed simulation of a *shared* AST (cloned: node ids match)."""
    from repro.obs import Observability

    obs = Observability()
    sim = Simulation(
        ast.clone(base),
        n_processes,
        params=dict(params),
        costs=RuntimeCosts(),
        protocol=make_protocol(protocol, period=6.0),
        fault_plan=make_plan(n_processes),
        seed=3,
        backend=backend,
        observer=obs.bus,
    )
    result = sim.run()
    return run_fingerprint(result, jsonl=obs.jsonl())


PLANS = {
    "clean": lambda n: FaultPlan(),
    "crash": lambda n: FaultPlan(crashes=[CrashEvent(time=12.0, rank=1)]),
    "storm": lambda n: exponential_fault_plan(
        n, horizon=40.0, failure_rate=0.02, storage_fault_rate=0.05, seed=7
    ),
}


class TestWorkloadMatrix:
    """Workload x protocol x failure-plan grid, both backends."""

    @pytest.mark.parametrize(
        "workload", standard_workloads(steps=8), ids=lambda w: w.label
    )
    @pytest.mark.parametrize("protocol", ("appl-driven", "cl", "cic"))
    @pytest.mark.parametrize("plan_name", tuple(PLANS))
    def test_byte_identical(self, workload, protocol, plan_name):
        base = parse(workload.program)
        if protocol != "appl-driven":
            base = strip_checkpoints(base)

        def attempt(backend):
            # A corrupt-checkpoint storm can legitimately exhaust
            # recovery (RecoveryError); both backends must then fail
            # identically. Any other exception is a real bug and
            # propagates.
            try:
                return run_once(
                    base, workload.n_processes, workload.params,
                    protocol, PLANS[plan_name], backend,
                )
            except RecoveryError as error:
                return ("RecoveryError", str(error))

        assert attempt("compiled") == attempt("reference")


class TestCampaignMatrix:
    """The @quick campaign matrix, cell artifacts included."""

    @pytest.mark.parametrize(
        "spec", quick_campaign(), ids=lambda s: s.label
    )
    def test_cell_artifacts_identical(self, spec):
        compiled = dataclasses.replace(
            spec, observe=True, backend="compiled"
        )
        reference = dataclasses.replace(
            spec, observe=True, backend="reference"
        )
        cell_compiled = _campaign_cell(compiled).to_json_dict()
        cell_reference = _campaign_cell(reference).to_json_dict()
        assert cell_compiled["error"] is None
        # The backend is deliberately part of the spec's content hash;
        # everything else — stats, final env, completion time, the
        # stmt_id-normalised JSONL event log — must match exactly.
        assert cell_compiled.pop("spec_hash") != cell_reference.pop(
            "spec_hash"
        )
        assert cell_compiled == cell_reference


class TestChaosSweep:
    """The full 420-schedule chaos sweep under both backends."""

    def test_sweep_verdicts_identical(self):
        seeds = range(70)  # 70 seeds x 6 protocols = 420 schedules
        compiled = chaos_sweep(seeds, config=ChaosConfig(backend="compiled"))
        reference = chaos_sweep(seeds, config=ChaosConfig(backend="reference"))
        assert list(compiled.cells) == list(reference.cells)
        assert len(compiled.cells) == 420
        for cell_compiled, cell_reference in zip(
            compiled.cells.values(), reference.cells.values()
        ):
            cell_compiled = cell_compiled.to_json_dict()
            cell_reference = cell_reference.to_json_dict()
            # The backend is part of the spec hash; the rest — verdict,
            # stats, final state — must match exactly.
            assert cell_compiled.pop("spec_hash") != cell_reference.pop(
                "spec_hash"
            )
            assert cell_compiled == cell_reference
        assert all(cell.error is None for cell in compiled.cells.values())


def drive_process(proc):
    """One process to completion or to its first exception.

    Returns the effect stream with the ``env`` after every step, the
    final ``env`` and the exception (type and text) that ended the
    drive, if any. Receives are answered from a fixed value stream.
    """
    history, failure = [], None
    for step in range(200):
        try:
            effect = proc.step()
        except Exception as error:  # compared, not handled
            failure = (type(error).__name__, str(error))
            break
        history.append((effect, getattr(effect, "stmt", None), dict(proc.env)))
        if effect is None:
            break
        if proc.snapshot().pending_recv is not None:
            proc.deliver(1_000 + step)
    return history, dict(proc.env), failure


#: name -> (program body, the ranks of 3 it fails on). Rank-pure
#: operands that fail, or are out of range, on some ranks only: lowering
#: must not move, reword or swallow the error, nor invent one behind a
#: guard.
FAILING_PROGRAMS = {
    "division-by-rank": ("y = 8 // (myrank - 1)", {1}),
    "modulo-by-rank": ("y = 8 % (myrank - 1)", {1}),
    "unguarded-send": (
        "x = input(a)\nsend(myrank + 1, input(b))\nz = input(a)", {2}
    ),
    "recv-below-zero": ("x = recv(myrank - 1)\ny = x", {0}),
    "bcast-root-out-of-range": ("x = bcast(myrank + 2, 5)\ny = x", {1, 2}),
    "guarded-send": (
        "if myrank + 1 < nprocs:\n    send(myrank + 1, 3)\nx = 1", set()
    ),
    "for-negative-count": (
        "for i in range(myrank - 1):\n    x = i\ny = 1", set()
    ),
    "and-short-circuit": ("y = (myrank > 0) and (4 // myrank)", set()),
    "or-short-circuit": ("y = (myrank == 0) or (4 // myrank)", set()),
    "unknown-builtin": (
        "x = input(a)\ny = nosuch(input(a), myrank)\nz = 1", {0, 1, 2}
    ),
    # Operand order: the dividend is evaluated (and fails) first.
    "division-input-order": (
        "y = (input(a) + 1) // (input(a) + 1)\nz = input(a)", set()
    ),
    "division-unbound-order": ("y = p // q", {0, 1, 2}),
    # Fused statements: an unbound operand in either position raises
    # the reference's text at the same point, after the operands left
    # of it were read.
    "kernel-unbound-first": ("y = combine(p, 1)", {0, 1, 2}),
    "kernel-unbound-second": ("y = combine(1, q)", {0, 1, 2}),
    "kernel-unbound-both": ("y = relax(myrank, p, q)", {0, 1, 2}),
    "operator-unbound-first": ("y = p * 2", {0, 1, 2}),
    "operator-unbound-second": ("y = 2 - q", {0, 1, 2}),
    "operator-unbound-both": ("y = p - q", {0, 1, 2}),
    "while-unbound": ("while p < 3:\n    x = 1", {0, 1, 2}),
    "while-unbound-both": ("while p < q:\n    x = 1", {0, 1, 2}),
    "if-unbound": ("if q == myrank:\n    x = 1\ny = 1", {0, 1, 2}),
    "if-unbound-both": ("if p != q:\n    x = 1", {0, 1, 2}),
    "send-unbound": ("send(1, p)", {0, 1, 2}),
    # The destination is range-checked before the value is read.
    "send-fused-out-of-range": ("x = 1\nsend(myrank + 1, x)", {2}),
    "send-out-of-range-unbound": ("send(myrank + 1, p)", {0, 1, 2}),
    # input() keeps a kernel call on the general path, in reference order.
    "kernel-input-unbound": ("y = combine(x, input(a))", {0, 1, 2}),
    "kernel-input-order": (
        "x = input(a)\ny = combine(x, input(a)) + input(b)\nz = input(a)",
        set(),
    ),
}


class TestErrorParity:
    """Failing programs: same effects, same ``env``, same error text."""

    @pytest.mark.parametrize("name", FAILING_PROGRAMS)
    def test_every_rank_fails_identically(self, name):
        body, expected_failing = FAILING_PROGRAMS[name]
        indented = "\n".join("    " + line for line in body.splitlines())
        program = parse(f"program t():\n{indented}\n")
        nprocs = 3
        compiled = compile_program(program, nprocs)
        failing = set()
        for rank in range(nprocs):
            reference = drive_process(ProcessInterpreter(
                program, rank, nprocs, inputs=InputProvider(seed=5)
            ))
            lowered = drive_process(
                compiled.bind(rank, inputs=InputProvider(seed=5))
            )
            assert lowered == reference
            # Effects carry the *shared* AST statement, not a copy.
            for (_, got, _), (_, want, _) in zip(lowered[0], reference[0]):
                assert got is want
            if reference[2] is not None:
                failing.add(rank)
        assert failing == expected_failing


class TestBackendArgument:
    def test_unknown_backend_rejected(self):
        workload = standard_workloads(steps=4)[0]
        with pytest.raises(Exception, match="unknown backend"):
            Simulation(
                parse(workload.program),
                workload.n_processes,
                params=dict(workload.params),
                backend="jit",
            )

    def test_spec_backend_reaches_engine(self):
        spec = dataclasses.replace(
            quick_campaign()[0], backend="reference"
        )
        sim = spec.build()
        assert sim.backend == "reference"
        assert spec.build().run().stats.completed
