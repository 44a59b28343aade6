"""Differential tests: the engine's indexed scheduler vs the linear scan.

The indexed scheduler must be a pure performance change — every
observable artifact (trace events, stats, final state, completion
time, normalised JSONL event logs, chaos verdicts) must be
byte-identical to the original per-step scan it replaced, which lives
on as the oracle ``ReferenceSchedulerSimulation``. These tests drive
both through the campaign matrix, a workload × protocol × failure
grid, and the full 420-schedule chaos sweep, and compare everything.
"""

import dataclasses

import pytest

from repro.bench.workloads import standard_workloads, strip_checkpoints
from repro.campaign import quick_campaign
from repro.campaign.executor import _campaign_cell
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.programs import stencil_1d, token_ring
from repro.protocols import make_protocol
from repro.runtime import FaultPlan, RuntimeCosts
from repro.runtime.chaos import chaos_sweep
from repro.runtime.failures import CrashEvent

from .reference_scheduler import (
    ENGINES,
    ReferenceSchedulerSimulation,
    scan_every_spec,
)


def run_fingerprint(result):
    """Everything observable about a finished run, as comparable data."""
    events = tuple(
        (e.seq, e.time, e.process, e.kind.value, e.stmt_id, e.message_id)
        for e in result.trace.events
    )
    return (
        events,
        result.stats.as_dict(),
        result.final_env,
        result.completion_time,
    )


def run_once(base, n_processes, params, protocol, plan, scheduler, **kwargs):
    """One simulation of a *shared* AST (cloned so node ids match)."""
    sim = ENGINES[scheduler](
        ast.clone(base),
        n_processes,
        params=dict(params),
        costs=RuntimeCosts(),
        protocol=make_protocol(protocol, period=6.0),
        fault_plan=FaultPlan(crashes=list(plan.crashes)),
        seed=3,
        **kwargs,
    )
    return sim.run()


class TestWorkloadMatrix:
    """Workload × protocol × failure grid, both schedulers."""

    @pytest.mark.parametrize(
        "workload", standard_workloads(steps=8), ids=lambda w: w.label
    )
    @pytest.mark.parametrize("protocol", ("appl-driven", "cl", "cic"))
    @pytest.mark.parametrize("crashed", (False, True), ids=("clean", "crash"))
    def test_byte_identical(self, workload, protocol, crashed):
        base = parse(workload.program)
        if protocol != "appl-driven":
            base = strip_checkpoints(base)
        plan = (
            FaultPlan(crashes=[CrashEvent(time=12.0, rank=1)])
            if crashed
            else FaultPlan()
        )
        indexed = run_once(
            base, workload.n_processes, workload.params, protocol, plan,
            "indexed",
        )
        reference = run_once(
            base, workload.n_processes, workload.params, protocol, plan,
            "reference",
        )
        assert run_fingerprint(indexed) == run_fingerprint(reference)


class TestCombinedStackAtScale:
    """Both retained reference implementations against production at n=192.

    The reference scan driving the tree-walking interpreter against the
    indexed scheduler driving the compiled backend, vector clocks
    included: at this width local run-ahead and wide packed clocks carry
    most of the run.
    """

    @pytest.mark.parametrize(
        "make_program, n_processes, steps",
        [
            pytest.param(token_ring, 192, 6, id="token_ring_n192"),
            pytest.param(stencil_1d, 192, 12, id="stencil_1d_n192"),
        ],
    )
    def test_byte_identical(self, make_program, n_processes, steps):
        base = make_program()

        def run(scheduler, backend):
            return run_once(
                base, n_processes, {"steps": steps}, "appl-driven",
                FaultPlan(), scheduler, backend=backend,
            )

        production = run("indexed", "compiled")
        reference = run("reference", "reference")
        assert run_fingerprint(production) == run_fingerprint(reference)
        assert [e.clock.components for e in production.trace.events] == [
            e.clock.components for e in reference.trace.events
        ]


class TestCampaignMatrix:
    """The @quick campaign matrix, cell artifacts included."""

    @pytest.mark.parametrize(
        "spec", quick_campaign(), ids=lambda s: s.label
    )
    def test_cell_artifacts_identical(self, spec, monkeypatch):
        observed = dataclasses.replace(spec, observe=True)
        cell_indexed = _campaign_cell(observed)
        scan_every_spec(monkeypatch)
        cell_reference = _campaign_cell(observed)
        assert cell_indexed.error is None
        assert cell_indexed.to_json_dict() == cell_reference.to_json_dict()


class TestChaosSweep:
    """The full 420-schedule chaos sweep under both schedulers."""

    def test_sweep_verdicts_identical(self, monkeypatch):
        seeds = range(70)  # 70 seeds x 6 protocols = 420 schedules
        indexed = chaos_sweep(seeds)
        scan_every_spec(monkeypatch)
        reference = chaos_sweep(seeds)
        assert len(indexed.cells) == 420
        assert indexed.to_json() == reference.to_json()
        assert all(cell.error is None for cell in indexed.cells.values())



class TestTheOracleScans:
    def test_specs_build_the_oracle_and_it_keeps_no_index(self, monkeypatch):
        scan_every_spec(monkeypatch)
        sim = quick_campaign()[0].build()
        assert type(sim) is ReferenceSchedulerSimulation
        assert sim.run().stats.completed
        assert sim._heap == [] and not sim._waiters
