"""The original path-enumerating Condition 1 checker, as a test oracle.

:func:`~repro.phases.verification.check_condition1` decides Condition 1
without enumerating a path; this is the procedure it replaced, kept
only so ``test_verification_differential`` can diff the two.
"""

from repro.cfg.dominators import find_back_edges
from repro.cfg.graph import ExtendedCFG
from repro.cfg.paths import CheckpointIndexing
from repro.phases.verification import VerificationResult, Violation

from ..cfg.path_enumeration import enumerate_checkpoints


def check_condition1_enumerated(
    ext: ExtendedCFG,
    include_back_edge_paths: bool = True,
    first_only: bool = False,
) -> VerificationResult:
    """Condition 1 by enumerating every acyclic path's ``C_i``."""
    enumeration = enumerate_checkpoints(ext.cfg)
    indexing = CheckpointIndexing(
        columns=enumeration.columns,
        path_counts=enumeration.path_counts,
        balanced=enumeration.balanced,
    )
    if not enumeration.balanced:
        return VerificationResult(
            ok=False,
            indexing=indexing,
            reason=(
                "paths carry different checkpoint counts "
                f"{list(indexing.path_counts)}; straight cuts are undefined"
            ),
        )
    back_edges = {(e.src, e.dst) for e in find_back_edges(ext.cfg)}
    exclude = () if include_back_edge_paths else tuple(back_edges)
    violations: list[Violation] = []
    for index, column in enumerate(enumeration.columns, start=1):
        members = sorted(column)
        for src in members:
            for dst in members:
                if src == dst:
                    continue
                path = ext.find_path(src, dst, exclude_back_edges=exclude)
                if path is None:
                    continue
                uses_back = any(
                    (path[k], path[k + 1]) in back_edges
                    for k in range(len(path) - 1)
                )
                violations.append(
                    Violation(
                        index=index,
                        src=src,
                        dst=dst,
                        path=tuple(path),
                        uses_back_edge=uses_back,
                    )
                )
                if first_only:
                    return _result(violations, indexing, ext)
    return _result(violations, indexing, ext)


def _result(violations, indexing, ext) -> VerificationResult:
    if not violations:
        return VerificationResult(ok=True, indexing=indexing)
    return VerificationResult(
        ok=False,
        indexing=indexing,
        violations=tuple(violations),
        reason="; ".join(v.describe(ext) for v in violations[:3]),
    )
