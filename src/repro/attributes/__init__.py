"""Rank-attribute analysis (paper §3.2).

The matching algorithm (Algorithm 3.1) needs four ingredients, all
provided here:

- **ID-dependence dataflow** (:mod:`repro.attributes.dataflow`): which
  variables and branch conditions depend on process IDs, and which are
  *irregular* (input-data dependent).
- **Abstract evaluation** (:mod:`repro.attributes.expressions`): partial
  evaluation of endpoint and condition expressions as functions of
  ``(rank, nprocs)``, over a whole vector of points in one walk, with
  *unknown* for irregular values.
- **Rank reachability** (:mod:`repro.attributes.domain`): which ranks
  can reach each send/recv node — a forward dataflow over the
  once-through DAG, bit-parallel over every system size, exact without
  enumerating a path.
- **Contradiction checking** (:mod:`repro.attributes.contradiction`):
  whether a send's destination attribute and a receive's source
  attribute can simultaneously hold, decided by exhaustive evaluation
  over a finite universe of system sizes. This is sound and complete
  for MiniMP's modular/range rank predicates (which are periodic in
  rank) and stands in for the paper's unspecified dataflow technique.
"""

from repro.attributes.contradiction import Universe, tables_compatible
from repro.attributes.dataflow import (
    ConditionClass,
    VariableClasses,
    classify_condition,
    classify_variables,
    single_assignments,
)
from repro.attributes.domain import node_tables
from repro.attributes.expressions import abstract_eval

__all__ = [
    "ConditionClass",
    "Universe",
    "VariableClasses",
    "abstract_eval",
    "classify_condition",
    "classify_variables",
    "node_tables",
    "single_assignments",
    "tables_compatible",
]
