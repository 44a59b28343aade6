"""The standard simulation workloads and the protocol-comparison cells.

The paper evaluates analytically; this module adds the missing
empirical leg: the *same* MiniMP workload under every registered
protocol, on the same seed and failure plan, as one
:class:`~repro.campaign.spec.ScenarioSpec` cell per protocol. The cells
run on :func:`~repro.campaign.executor.run_campaign` like any other
campaign, and :func:`comparison_table` reads overhead, coordination
cost and recovery behaviour from their outcomes. ``repro compare``,
``tools/regenerate_results.py`` and the ``protocol_comparison`` example
all build and print the comparison through these functions.
"""

from __future__ import annotations

from dataclasses import replace

from repro.campaign.executor import CampaignResult
from repro.campaign.spec import ScenarioSpec
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.lang.programs import program_source
from repro.protocols import PROTOCOL_CLASSES, RECOVERING_PROTOCOLS

#: Standard workload -> process count (all Phase-III-safe placements).
_SIZES = {
    "jacobi": 4,
    "ring_pipeline": 5,
    "master_worker": 4,
    "stencil_1d": 4,
    "broadcast_reduce": 4,
    "token_ring": 5,
    "pingpong": 6,
    "tree_reduce": 8,
}

def standard_workloads(steps: int = 20) -> list[ScenarioSpec]:
    """The benchmark workload suite: one cell per workload, labelled by name."""
    return [
        ScenarioSpec(
            label=name,
            program=program_source(name),
            n_processes=n_processes,
            params={"steps": steps},
        )
        for name, n_processes in _SIZES.items()
    ]


def protocol_cells(
    workload: ScenarioSpec,
    protocols: tuple[str, ...] = RECOVERING_PROTOCOLS,
    **fields,
) -> list[ScenarioSpec]:
    """One cell of *workload* per protocol, labelled ``workload/protocol``.

    The application-driven protocol runs the workload as-is (its
    checkpoint statements are the protocol); every other protocol runs
    the checkpoint-free variant, so no workload checkpoint duplicates a
    protocol one. *fields* (``period``, ``fault_plan``, …) set the same
    :class:`ScenarioSpec` fields on every cell.
    """
    stripped = to_source(strip_checkpoints(parse(workload.program)))
    return [
        replace(
            workload,
            label=f"{workload.label}/{protocol}",
            protocol=protocol,
            program=workload.program if protocol == "appl-driven" else stripped,
            **fields,
        )
        for protocol in protocols
    ]


def comparison_table(cells: list[ScenarioSpec], result: CampaignResult) -> str:
    """The outcomes of *cells* as an aligned table, one row per cell.

    The protocol column is each class's own ``name`` (``SaS``, ``C-L``,
    ``CIC-BCS``, …); a cell that raised shows its error instead of
    numbers.
    """
    lines = [
        f"{'workload':>16s} {'protocol':>14s} {'time':>9s} {'ckpts':>6s} "
        f"{'forced':>6s} {'ctl':>6s} {'rb':>5s} {'lost':>8s}"
    ]
    for cell in cells:
        outcome = result.cells[cell.label]
        workload = cell.label.rpartition("/")[0]
        head = f"{workload:>16s} {PROTOCOL_CLASSES[cell.protocol].name:>14s}"
        stats = outcome.stats
        if stats is None:
            lines.append(f"{head} {outcome.error}")
            continue
        lines.append(
            f"{head} {outcome.completion_time:>9.2f} "
            f"{stats['checkpoints']:>6d} {stats['forced_checkpoints']:>6d} "
            f"{stats['control_messages']:>6d} {stats['rollbacks']:>5d} "
            f"{stats['lost_work']:>8.2f}"
        )
    return "\n".join(lines) + "\n"


def strip_checkpoints(program: ast.Program) -> ast.Program:
    """A copy of *program* with every ``checkpoint`` statement removed."""
    working = ast.clone(program)
    for node in ast.walk(working):
        if isinstance(node, ast.Block):
            node.statements[:] = [
                s for s in node.statements if not isinstance(s, ast.Checkpoint)
            ]
    return ast.number_nodes(working)
