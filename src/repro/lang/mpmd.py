"""MPMD support (paper §3: "if all the files of the source code of a
message-passing program are presented for offline analysis, our
approach works for MPMD as well").

A *Multiple Program Multiple Data* application assigns different source
programs to different rank ranges (e.g. a coordinator program on rank 0
and a worker program on ranks 1..n-1). We make the existing SPMD
pipeline handle MPMD by **synthesis**: the per-role programs are merged
into a single SPMD program whose top level dispatches on an
ID-dependent rank predicate::

    if <rank in role-0 ranks>:
        <role-0 body>
    else:
        if <rank in role-1 ranks>:
            <role-1 body>
        ...

Because the dispatch branches are ID-dependent, Phase II's attribute
machinery automatically confines each role's sends/receives to its rank
set, and Phases I/III apply unchanged. This is a faithful realisation
of the paper's claim: the offline analysis only ever needed *all* the
code plus rank attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LanguageError
from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class RankSet:
    """A set of ranks defined relative to the system size.

    ``kind``:

    - ``"exact"``: ranks listed in ``values``;
    - ``"range"``: ``lo <= rank`` and (if ``hi`` is not None)
      ``rank < hi``, where negative bounds count from ``nprocs``
      (-1 = nprocs-1);
    - ``"rest"``: every rank not claimed by another role (must be last).
    """

    kind: str
    values: tuple[int, ...] = ()
    lo: int = 0
    hi: int | None = None

    @classmethod
    def exact(cls, *ranks: int) -> "RankSet":
        if not ranks:
            raise LanguageError("exact rank set needs at least one rank")
        return cls(kind="exact", values=tuple(sorted(set(ranks))))

    @classmethod
    def range(cls, lo: int, hi: int | None = None) -> "RankSet":
        return cls(kind="range", lo=lo, hi=hi)

    @classmethod
    def rest(cls) -> "RankSet":
        return cls(kind="rest")

    def predicate(self) -> ast.Expr:
        """The MiniMP condition testing membership of ``myrank``."""
        if self.kind == "exact":
            expr: ast.Expr | None = None
            for rank in self.values:
                test = ast.BinOp(
                    op="==", left=ast.MyRank(), right=ast.Const(value=rank)
                )
                expr = test if expr is None else ast.BinOp(
                    op="or", left=expr, right=test
                )
            assert expr is not None
            return expr
        if self.kind == "range":
            low = ast.BinOp(
                op=">=", left=ast.MyRank(), right=_bound_expr(self.lo)
            )
            if self.hi is None:
                return low
            high = ast.BinOp(
                op="<", left=ast.MyRank(), right=_bound_expr(self.hi)
            )
            return ast.BinOp(op="and", left=low, right=high)
        raise LanguageError("the 'rest' rank set has no explicit predicate")

    def members(self, nprocs: int) -> frozenset[int]:
        """Concrete members for a system of *nprocs* processes."""
        if self.kind == "exact":
            return frozenset(r for r in self.values if 0 <= r < nprocs)
        if self.kind == "range":
            lo = self.lo if self.lo >= 0 else nprocs + self.lo
            hi = nprocs if self.hi is None else (
                self.hi if self.hi >= 0 else nprocs + self.hi
            )
            return frozenset(range(max(0, lo), min(nprocs, hi)))
        return frozenset(range(nprocs))  # refined by combine_mpmd


def _bound_expr(bound: int) -> ast.Expr:
    if bound >= 0:
        return ast.Const(value=bound)
    return ast.BinOp(
        op="-", left=ast.NProcs(), right=ast.Const(value=-bound)
    )


@dataclass(frozen=True)
class Role:
    """One MPMD role: a program and the ranks that run it."""

    program: ast.Program
    ranks: RankSet


def combine_mpmd(roles: list[Role], name: str = "mpmd") -> ast.Program:
    """Merge MPMD *roles* into one analysable SPMD program.

    Roles are tried in order; at most one ``rest`` role is allowed and
    it must come last. Role bodies are deep-copied, so the inputs stay
    usable. The result feeds directly into ``transform()`` /
    ``Simulation`` like any SPMD program.

    If the last role is explicit (no ``rest``), ranks outside every
    role fall through to a synthesized else branch padded with the
    per-path checkpoint count of the first role, so the combined CFG
    keeps the balance property Phases II/III require. (At run time no
    such rank exists in a correctly sized system; the padding is a
    static-analysis artifact, mirroring Phase I's "add/remove
    checkpoints to balance paths".)
    """
    if not roles:
        raise LanguageError("combine_mpmd needs at least one role")
    rest_roles = [r for r in roles if r.ranks.kind == "rest"]
    if len(rest_roles) > 1:
        raise LanguageError("at most one 'rest' role is allowed")
    if rest_roles and roles[-1].ranks.kind != "rest":
        raise LanguageError("the 'rest' role must come last")

    from repro.phases.insertion import _path_checkpoints

    pad_count = _path_checkpoints(roles[0].program.body)

    def build(remaining: list[Role]) -> list[ast.Stmt]:
        role = remaining[0]
        body = ast.clone(role.program.body)
        if len(remaining) == 1:
            if role.ranks.kind == "rest":
                return list(body.statements)
            # Last explicit role: guard it, and pad the fall-through so
            # every static path carries the same checkpoint count.
            padding = ast.Block(
                statements=[ast.Checkpoint() for _ in range(pad_count)]
            )
            return [
                ast.If(
                    cond=role.ranks.predicate(),
                    then_block=body,
                    else_block=padding,
                )
            ]
        return [
            ast.If(
                cond=role.ranks.predicate(),
                then_block=body,
                else_block=ast.Block(statements=build(remaining[1:])),
            )
        ]

    return ast.number_nodes(
        ast.Program(name=name, body=ast.Block(statements=build(list(roles))))
    )
