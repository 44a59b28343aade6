"""Human-readable transformation reports.

Summarises a :class:`~repro.phases.pipeline.TransformResult` — what
Phase I inserted, what Phase III moved, what the verifier concluded —
as plain text for CLI output, logs, and review. The report is pure
presentation; all data comes from the result object.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.phases.pipeline import TransformResult


def transform_report(result: TransformResult) -> str:
    """Render *result* as a multi-line text report."""
    lines = [f"program: {result.program.name}"]

    if result.insertion is None:
        lines.append("phase I : skipped (program already has checkpoints)")
    else:
        plan = result.insertion
        lines.append(
            f"phase I : inserted {plan.inserted} checkpoint(s) at optimal "
            f"interval {plan.interval:.2f} "
            f"(estimated run cost {plan.estimated_cost:.1f})"
        )
        if plan.balance_added:
            lines.append(
                f"          +{plan.balance_added} balancing checkpoint(s)"
            )

    checkpoints = ast.count_statements(result.program, ast.Checkpoint)
    moves = result.placement.moves
    if moves:
        lines.append(f"phase III: {len(moves)} move(s)")
        for move in moves:
            lines.append(f"          - {move.description}")
    else:
        lines.append("phase III: placement already safe, no moves")
    constraints = result.placement.ordering_constraints
    if constraints:
        lines.append(
            f"          {len(constraints)} loop ordering constraint(s) "
            "(discharged by message order)"
        )

    depth = result.verification.indexing.depth
    lines.append(
        f"verified : Condition 1 holds; {checkpoints} checkpoint "
        f"statement(s), {depth} straight cut(s) per execution path"
    )

    live = result.placement.checkpoint_live
    dead = result.placement.checkpoint_dead
    if live:
        # live ∪ dead of any one checkpoint is the analysis universe.
        first = next(iter(live))
        total = len(live[first] | dead[first])
        lines.append(
            f"liveness : {len(live)} checkpoint(s) over "
            f"{total} variable(s)"
        )
        # Checkpoints are labelled by document-order ordinal: node ids
        # are pre-order positions, so sorting them is document order.
        for ordinal, stmt_id in enumerate(sorted(live), start=1):
            dead_names = ", ".join(sorted(dead[stmt_id])) or "-"
            lines.append(
                f"          - checkpoint #{ordinal}: "
                f"{len(live[stmt_id])} live, {len(dead[stmt_id])} dead "
                f"(prunable: {dead_names})"
            )
    return "\n".join(lines)
