"""Engine hot-path microbenchmark: compiled vs reference execution.

Runs the same large-``n`` workloads under the two retained
reference implementations — the scanning scheduler
(``scheduler="reference"``) driving the tree-walking interpreter
(``backend="reference"``) — and the optimized pair — the indexed
scheduler driving the closure-compiled backend
(``backend="compiled"``) — asserts the runs are identical down to the
trace (vector clocks included), and records best-of-N wall times. The
reference side walks AST nodes per statement and scans every process
per step; the optimized side executes one shared closure table over
slotted frames under an event-heap scheduler, so the gap compounds
across both layers.

The garbage collector is disabled around each timed region (standard
microbenchmark practice, applied to both sides): collection pauses
land on whichever call site allocates at the wrong moment, and the
resulting attribution noise otherwise dominates case-to-case variance.

Result artifact: ``results/BENCH_engine.json`` (see
:mod:`repro.bench.record` for the schema and how CI consumes it).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.record import BenchCase, BenchReport
from repro.lang import ast_nodes as ast
from repro.lang.programs import stencil_1d, token_ring
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FailurePlan, RuntimeCosts, Simulation
from repro.runtime.storage import StoreReceipt


@dataclass(frozen=True)
class _EngineCase:
    """One workload configuration timed under both execution stacks."""

    name: str
    make_program: Callable[[], ast.Program]
    n_processes: int
    steps: int


#: Largest configurations of the shipped workloads: big enough that
#: per-statement interpretation and per-step scheduling dominate the
#: run time on the reference side.
ENGINE_CASES: tuple[_EngineCase, ...] = (
    _EngineCase("stencil_1d_n192", stencil_1d, 192, 12),
    _EngineCase("stencil_1d_n256", stencil_1d, 256, 8),
    _EngineCase("token_ring_n192", token_ring, 192, 6),
)


def _run(base: ast.Program, case: _EngineCase, scheduler: str, backend: str):
    sim = Simulation(
        ast.clone(base),
        case.n_processes,
        params={"steps": case.steps},
        costs=RuntimeCosts(),
        protocol=ApplicationDrivenProtocol(),
        failure_plan=FailurePlan.none(),
        seed=3,
        scheduler=scheduler,
        backend=backend,
    )
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return wall, result


def _fingerprint(result) -> tuple:
    events = tuple(
        (
            e.seq, e.time, e.process, e.kind.value, e.stmt_id,
            e.message_id, e.clock.components,
        )
        for e in result.trace.events
    )
    return (
        events,
        result.stats.as_dict(),
        result.final_env,
        result.completion_time,
    )


def engine_hotpath_report(repeats: int = 4) -> BenchReport:
    """Time every engine case under both stacks (best of *repeats*).

    The program AST is built once per case and cloned per run so both
    stacks execute byte-identical inputs (node ids come from a
    process-global counter; parsing twice would differ). Only
    ``sim.run()`` is timed: lowering and per-rank binding happen in
    ``Simulation(...)``, which every campaign cell pays — that cost is
    measured by ``bench/``'s ``runtime.engine.construct_s``, not here.
    """
    cases: list[BenchCase] = []
    for case in ENGINE_CASES:
        base = case.make_program()
        _run(base, case, "indexed", "compiled")  # warm before timing
        best_optimized = best_reference = float("inf")
        # Each stack's repeats run back to back (not interleaved): a
        # reference run's allocation churn would otherwise cold-start
        # the next compiled run's caches, and best-of-N is meant to
        # estimate each stack's floor, not its recovery from the other.
        for _ in range(repeats):
            wall_o, result_o = _run(base, case, "indexed", "compiled")
            best_optimized = min(best_optimized, wall_o)
        for _ in range(repeats):
            wall_r, result_r = _run(base, case, "reference", "reference")
            best_reference = min(best_reference, wall_r)
        identical = _fingerprint(result_o) == _fingerprint(result_r)
        ops = len(result_o.trace.events)
        cases.append(
            BenchCase(
                name=case.name,
                reference_wall_s=best_reference,
                optimized_wall_s=best_optimized,
                ops=ops,
                identical=identical,
            )
        )
    cases.extend(engine_breakdown_cases(repeats=repeats))
    return BenchReport(benchmark="engine", cases=tuple(cases))


#: Cost components the breakdown cases disable one at a time (the
#: residual after all three is statement execution + scheduling).
BREAKDOWN_COMPONENTS: tuple[str, ...] = (
    "storage-commit", "trace", "clock",
)

#: The workload whose compiled-vs-reference gap is the narrowest of
#: :data:`ENGINE_CASES` — its statements are tiny, so engine-side
#: bookkeeping (commit, trace, vector clocks) is the bound to explain.
_BREAKDOWN_CASE = _EngineCase("token_ring_n192", token_ring, 192, 6)


def _run_component_stubbed(
    base: ast.Program, case: _EngineCase, component: str
):
    """One compiled-stack run with a single cost component disabled.

    Stubbing is behaviour-preserving for everything the ``identical``
    check covers (final environments, completion time, verdict) on a
    fault-free run: checkpoint commits, trace rows, and vector clocks
    are recovery/analysis artifacts, never inputs to forward execution.
    """
    sim = Simulation(
        ast.clone(base),
        case.n_processes,
        params={"steps": case.steps},
        costs=RuntimeCosts(),
        protocol=ApplicationDrivenProtocol(),
        failure_plan=FailurePlan.none(),
        seed=3,
        scheduler="indexed",
        backend="compiled",
    )
    restore: list = []
    if component == "storage-commit":
        receipt = StoreReceipt(published=True)
        sim.storage.store = lambda checkpoint, **kwargs: receipt
    elif component == "trace":
        sim.trace.append = lambda *args, **kwargs: None
    elif component == "clock":
        from repro.causality.vector_clock import VectorClock

        restore.append((VectorClock, "tick", VectorClock.tick))
        restore.append((VectorClock, "receive", VectorClock.receive))
        VectorClock.tick = lambda self, rank: self
        VectorClock.receive = lambda self, other, rank: self
    else:
        raise ValueError(f"unknown breakdown component {component!r}")
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
        for owner, name, original in restore:
            setattr(owner, name, original)
    return wall, result


def _outcome(result) -> tuple:
    """What component stubbing must not change."""
    return (result.final_env, result.completion_time, result.verdict)


def engine_breakdown_cases(repeats: int = 4) -> tuple[BenchCase, ...]:
    """Per-component cost attribution of the compiled hot path.

    Each case re-times :data:`_BREAKDOWN_CASE` with one engine cost
    component stubbed out (``reference`` = the stock compiled run,
    ``optimized`` = the stubbed run), so ``speedup`` exposes how much
    of the wall time that component accounts for — machine-readably,
    as ``cost_share`` in the JSON row. These rows attribute the
    token-ring shortfall; they are deliberately **not** in
    ``tools/perf_smoke.py``'s ``REQUIRED_ENGINE_CASES``.
    """
    case = _BREAKDOWN_CASE
    base = case.make_program()
    _run(base, case, "indexed", "compiled")  # warm before timing
    best_stock = float("inf")
    for _ in range(repeats):
        wall, result_stock = _run(base, case, "indexed", "compiled")
        best_stock = min(best_stock, wall)
    rows: list[BenchCase] = []
    for component in BREAKDOWN_COMPONENTS:
        best_stubbed = float("inf")
        for _ in range(repeats):
            wall, result_stubbed = _run_component_stubbed(
                base, case, component
            )
            best_stubbed = min(best_stubbed, wall)
        share = max(0.0, 1.0 - best_stubbed / best_stock)
        rows.append(
            BenchCase(
                name=f"{case.name}_minus_{component}",
                reference_wall_s=best_stock,
                optimized_wall_s=best_stubbed,
                ops=len(result_stock.trace.events),
                identical=_outcome(result_stock) == _outcome(
                    result_stubbed
                ),
                extra={
                    "component": component,
                    "cost_share": round(share, 4),
                },
            )
        )
    return tuple(rows)


def format_engine_hotpath(report: BenchReport) -> str:
    """Aligned text table (the JSON is the canonical artifact)."""
    lines = [
        f"{'case':>18s} {'reference':>10s} {'compiled':>10s} "
        f"{'speedup':>8s} {'events':>8s} {'identical':>9s}"
    ]
    for case in report.cases:
        lines.append(
            f"{case.name:>18s} {case.reference_wall_s:>9.3f}s "
            f"{case.optimized_wall_s:>9.3f}s {case.speedup:>7.2f}x "
            f"{case.ops:>8d} {str(case.identical):>9s}"
        )
    return "\n".join(lines)
