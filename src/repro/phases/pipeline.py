"""End-to-end offline transformation (all three phases).

:func:`transform` is the library's headline entry point: feed it a
MiniMP program (with or without checkpoint statements) and get back a
program whose every straight cut of checkpoints is a recovery line in
every execution — the paper's coordination-free checkpointing protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attributes.contradiction import Universe
from repro.lang import ast_nodes as ast
from repro.obs.spans import NULL_TRACKER
from repro.phases.insertion import CostModel, InsertionPlan, insert_checkpoints
from repro.phases.placement import PlacementResult, ensure_recovery_lines
from repro.phases.verification import VerificationResult


@dataclass
class TransformResult:
    """Everything the offline pipeline produced.

    Attributes:
        program: The final transformed program.
        insertion: Phase I's plan (None when the input already had
            checkpoints and insertion was skipped).
        placement: Phase III's result, including the moves performed.
        verification: The final Condition 1 check of the *output*
            program — always ``ok`` when transform returns.
    """

    program: ast.Program
    insertion: InsertionPlan | None
    placement: PlacementResult
    verification: VerificationResult


def transform(
    program: ast.Program,
    cost_model: CostModel = CostModel(),
    loop_optimization: bool = False,
    universe: Universe = Universe(),
    force_insertion: bool = False,
    cache=None,
    tracker=None,
) -> TransformResult:
    """Apply Phases I–III to *program* (never mutated) and verify.

    Phase I runs only when the program has no checkpoint statements
    (it is optional per the paper) unless *force_insertion* is set.

    *cache* is an optional
    :class:`~repro.campaign.cache.TransformCache`: when the same
    program has already been transformed under the same cost model,
    universe, and flags, the stored result is returned without
    re-running any phase (and the cache's hit counter ticks —
    observable through an attached metrics registry).

    *tracker* is an optional :class:`~repro.obs.spans.SpanTracker`;
    when given, each phase runs inside a span (``phase1.insertion``,
    ``phase3.placement`` with the single ``phase2.matching`` run nested
    in it, ``phase4.verification``) plus a ``cache.lookup`` span with
    an ``outcome`` field, so ``repro trace chrome`` shows where
    transform time goes.
    """
    tracker = tracker if tracker is not None else NULL_TRACKER
    key: str | None = None
    if cache is not None:
        key = cache.key_for(
            program, cost_model, loop_optimization, universe, force_insertion
        )
        with tracker.span("cache.lookup") as lookup:
            cached = cache.get(key)
            lookup.fields["outcome"] = "hit" if cached is not None else "miss"
        if cached is not None:
            return cached
    insertion: InsertionPlan | None = None
    current = program
    if force_insertion or ast.count_statements(program, ast.Checkpoint) == 0:
        with tracker.span("phase1.insertion"):
            insertion = insert_checkpoints(program, model=cost_model)
        current = insertion.program
    with tracker.span("phase3.placement"):
        placement = ensure_recovery_lines(
            current,
            loop_optimization=loop_optimization,
            universe=universe,
            tracker=tracker,
        )
    # Phase III's last check ran on this very graph with the same
    # back-edge setting and came out ok; an ok check never stops at a
    # first violation, so it already is the full verdict.
    with tracker.span("phase4.verification"):
        verification = placement.verification
    verification.raise_if_failed()
    # Motion moved checkpoints: renumber, so the output's ids are its
    # own pre-order positions, as a parse of its text would give.
    result = TransformResult(
        program=ast.number_nodes(placement.program),
        insertion=insertion,
        placement=placement,
        verification=verification,
    )
    if cache is not None and key is not None:
        cache.put(key, result)
    return result
