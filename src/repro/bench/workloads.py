"""Simulation workloads and the protocol-comparison harness.

The paper evaluates analytically; this module adds the missing
empirical leg: run the *same* MiniMP workload under every protocol on
the same seed and failure plan, and summarise overhead, coordination
cost, and recovery behaviour per protocol. Used by the validation
tests (V4/V5 in DESIGN.md) and the ``protocol_comparison`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.lang import ast_nodes as ast
from repro.lang.programs import (
    broadcast_reduce,
    jacobi,
    master_worker,
    pingpong,
    ring_pipeline,
    stencil_1d,
    token_ring,
    tree_reduce,
)
from repro.phases.pipeline import transform
from repro.protocols import (
    ApplicationDrivenProtocol,
    ChandyLamportProtocol,
    InducedProtocol,
    MessageLoggingProtocol,
    SyncAndStopProtocol,
    UncoordinatedProtocol,
)
from repro.runtime import FailurePlan, RuntimeCosts, Simulation


@dataclass(frozen=True)
class WorkloadSpec:
    """A named simulation workload.

    ``make_program`` returns a fresh AST per run; ``n_processes`` and
    ``params`` configure the system; ``transformed`` marks programs
    whose checkpoint placement already passed Phase III (required for
    the application-driven protocol).
    """

    name: str
    make_program: Callable[[], ast.Program]
    n_processes: int
    params: dict[str, int] = field(default_factory=dict)
    transformed: bool = True


def standard_workloads(steps: int = 20) -> list[WorkloadSpec]:
    """The benchmark workload suite (all Phase-III-safe placements)."""
    return [
        WorkloadSpec("jacobi", jacobi, 4, {"steps": steps}),
        WorkloadSpec("ring_pipeline", ring_pipeline, 5, {"steps": steps}),
        WorkloadSpec("master_worker", master_worker, 4, {"steps": steps}),
        WorkloadSpec("stencil_1d", stencil_1d, 4, {"steps": steps}),
        WorkloadSpec("broadcast_reduce", broadcast_reduce, 4, {"steps": steps}),
        WorkloadSpec("token_ring", token_ring, 5, {"steps": steps}),
        WorkloadSpec("pingpong", pingpong, 6, {"steps": steps}),
        WorkloadSpec("tree_reduce", tree_reduce, 8, {"steps": steps}),
    ]


@dataclass(frozen=True)
class ProtocolRunSummary:
    """Comparable outcome of one (workload, protocol) run."""

    workload: str
    protocol: str
    completion_time: float
    checkpoints: int
    forced_checkpoints: int
    control_messages: int
    app_messages: int
    failures: int
    rollbacks: int
    lost_work: float
    completed: bool

    def row(self) -> str:
        """One aligned table row (pairs with :meth:`header`)."""
        return (
            f"{self.workload:>16s} {self.protocol:>14s} "
            f"{self.completion_time:>9.2f} {self.checkpoints:>6d} "
            f"{self.forced_checkpoints:>6d} {self.control_messages:>6d} "
            f"{self.rollbacks:>5d} {self.lost_work:>8.2f}"
        )

    @staticmethod
    def header() -> str:
        """Column headers matching :meth:`row`."""
        return (
            f"{'workload':>16s} {'protocol':>14s} {'time':>9s} {'ckpts':>6s} "
            f"{'forced':>6s} {'ctl':>6s} {'rb':>5s} {'lost':>8s}"
        )


def _protocol_factories(period: float):
    return {
        "appl-driven": lambda: ApplicationDrivenProtocol(),
        "SaS": lambda: SyncAndStopProtocol(period=period),
        "C-L": lambda: ChandyLamportProtocol(period=period),
        "uncoordinated": lambda: UncoordinatedProtocol(period=period),
        "CIC-BCS": lambda: InducedProtocol(period=period),
        "msg-logging": lambda: MessageLoggingProtocol(period=period),
    }


def run_protocol_comparison(
    workload: WorkloadSpec,
    period: float = 10.0,
    failure_plan: FailurePlan | None = None,
    costs: RuntimeCosts = RuntimeCosts(),
    seed: int = 0,
    protocols: tuple[str, ...] = (
        "appl-driven",
        "SaS",
        "C-L",
        "uncoordinated",
        "CIC-BCS",
        "msg-logging",
    ),
) -> list[ProtocolRunSummary]:
    """Run *workload* under each named protocol; return the summaries.

    The application-driven protocol runs the workload as-is (its
    checkpoint statements are the protocol); the runtime protocols run
    the checkpoint-free variant of the program (checkpoint statements
    stripped) so no workload checkpoints duplicate protocol ones.
    """
    factories = _protocol_factories(period)
    summaries: list[ProtocolRunSummary] = []
    for name in protocols:
        make = factories[name]
        program = workload.make_program()
        if name != "appl-driven":
            program = strip_checkpoints(program)
        plan = FailurePlan(crashes=list((failure_plan or FailurePlan.none()).crashes))
        sim = Simulation(
            program,
            workload.n_processes,
            params=dict(workload.params),
            costs=costs,
            protocol=make(),
            failure_plan=plan,
            seed=seed,
        )
        result = sim.run()
        summaries.append(
            ProtocolRunSummary(
                workload=workload.name,
                protocol=name,
                completion_time=result.completion_time,
                checkpoints=result.stats.checkpoints,
                forced_checkpoints=result.stats.forced_checkpoints,
                control_messages=result.stats.control_messages,
                app_messages=result.stats.app_messages,
                failures=result.stats.failures,
                rollbacks=result.stats.rollbacks,
                lost_work=result.stats.lost_work,
                completed=result.stats.completed,
            )
        )
    return summaries


def strip_checkpoints(program: ast.Program) -> ast.Program:
    """A copy of *program* with every ``checkpoint`` statement removed."""
    working = ast.clone(program)
    for node in ast.walk(working):
        if isinstance(node, ast.Block):
            node.statements[:] = [
                s for s in node.statements if not isinstance(s, ast.Checkpoint)
            ]
    return working


def ensure_transformed(program: ast.Program) -> ast.Program:
    """Run the offline pipeline on *program* and return the safe variant."""
    return transform(program).program
