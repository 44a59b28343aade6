"""ID-dependence and irregularity dataflow over MiniMP programs.

The paper (§3.2) requires determining, for every branch, whether its
condition expression *depends on process IDs* (an *ID-dependent*
branch), and for every send/receive parameter whether its computation
pattern is *regular* (a function of rank and system size) or
*irregular* (depends on input data).

We compute two transitively-closed variable classes:

- ``rank_dependent``: assigned (directly or transitively) from
  ``myrank``.
- ``irregular``: assigned from ``input(...)``, from a received message,
  or from another irregular variable. Received values are irregular
  because their content is another process's data, which static
  analysis must not constrain.

``nprocs`` is deliberately *not* ID-dependent: it is identical in every
process, so a condition on ``nprocs`` alone cannot distinguish ranks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.lang import ast_nodes as ast


class ConditionClass(enum.Enum):
    """Classification of a branch condition (paper §3.2)."""

    ID_DEPENDENT = "id-dependent"
    IRREGULAR = "irregular"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class VariableClasses:
    """The fixpoint variable classification of a program."""

    rank_dependent: frozenset[str]
    irregular: frozenset[str]


def _mentions(expr: ast.Expr) -> tuple[frozenset[str], bool, bool]:
    """One walk of *expr*: ``(names, mentions myrank, mentions input)``."""
    names: set[str] = set()
    rank = irregular = False
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.ident)
        elif isinstance(node, ast.MyRank):
            rank = True
        elif isinstance(node, ast.InputData):
            irregular = True
    return frozenset(names), rank, irregular


def classify_variables(program: ast.Program) -> VariableClasses:
    """Fixpoint classification of every assigned variable in *program*."""
    assigns: list[tuple[str, tuple[frozenset[str], bool, bool]]] = []
    irregular: set[str] = set()
    for node in ast.walk(program):
        if isinstance(node, ast.Assign):
            assigns.append((node.target, _mentions(node.value)))
        elif isinstance(node, (ast.Recv, ast.Bcast)):
            irregular.add(node.target)

    rank_dep: set[str] = set()
    changed = True
    while changed:
        changed = False
        for target, (names, rank, from_input) in assigns:
            if (rank or names & rank_dep) and target not in rank_dep:
                rank_dep.add(target)
                changed = True
            if (from_input or names & irregular) and target not in irregular:
                irregular.add(target)
                changed = True
    return VariableClasses(
        rank_dependent=frozenset(rank_dep), irregular=frozenset(irregular)
    )


def classify_condition(
    expr: ast.Expr, classes: VariableClasses
) -> ConditionClass:
    """Classify a branch condition or endpoint expression.

    Irregularity dominates: a condition mixing ``myrank`` with input
    data cannot be used as a reliable rank attribute, so it is treated
    as irregular (unconstrained) — the conservative choice for matching.
    """
    names, rank, from_input = _mentions(expr)
    if from_input or names & classes.irregular:
        return ConditionClass.IRREGULAR
    if rank or names & classes.rank_dependent:
        return ConditionClass.ID_DEPENDENT
    return ConditionClass.NEUTRAL


def single_assignments(program: ast.Program) -> dict[str, ast.Expr]:
    """Map of variables assigned exactly once to their defining expression.

    Used by abstract evaluation to inline simple definitions (e.g.
    ``peer = myrank + 1``) when evaluating endpoint expressions.
    Variables also bound by ``recv``/``bcast``/``for`` are excluded.
    """
    counts: dict[str, int] = {}
    defs: dict[str, ast.Expr] = {}
    for node in ast.walk(program):
        if isinstance(node, ast.Assign):
            counts[node.target] = counts.get(node.target, 0) + 1
            defs[node.target] = node.value
        elif isinstance(node, (ast.Recv, ast.Bcast)):
            counts[node.target] = counts.get(node.target, 0) + 2
        elif isinstance(node, ast.For):
            counts[node.var] = counts.get(node.var, 0) + 2
    return {name: expr for name, expr in defs.items() if counts[name] == 1}
