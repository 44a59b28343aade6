"""Static program validation (a lint front end for MiniMP).

Catches the mistakes that would otherwise surface as runtime
:class:`~repro.errors.SimulationError` or as confusing Phase II/III
failures, and reports them all at once with line numbers:

- **use-before-assignment** of variables (modulo parameters the caller
  declares);
- **definitely-out-of-range endpoints** (e.g. ``send(nprocs, ...)`` or
  a negative constant destination) — checked conservatively: a
  diagnostic is raised only when the endpoint is out of range for
  *every* system size in the universe;
- **unbalanced checkpoint placement** (paths with differing checkpoint
  counts), reported as a warning since Phase I/III can repair it;
- **self-sends** (``send(myrank, ...)``), which deadlock under blocking
  receive semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attributes.expressions import evaluate, universe_points
from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding."""

    severity: str  # "error" | "warning"
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: line {self.line}: {self.message}"


def validate_program(
    program: ast.Program,
    params: tuple[str, ...] = ("steps",),
    universe_sizes: tuple[int, ...] = tuple(range(2, 18)),
) -> list[Diagnostic]:
    """Validate *program*; returns all diagnostics (empty = clean).

    *params* names the run-time parameters considered pre-bound (free
    names outside this set are use-before-assignment errors).
    """
    diagnostics: list[Diagnostic] = []
    _check_bindings(program.body, set(params), diagnostics)
    _check_endpoints(program, universe_sizes, diagnostics)
    _check_balance(program, diagnostics)
    diagnostics.sort(key=lambda d: (d.line, d.message))
    return diagnostics


# ---------------------------------------------------------------------------
# Use-before-assignment
# ---------------------------------------------------------------------------


def _expr_names(expr: ast.Expr) -> list[tuple[str, int]]:
    return [
        (node.ident, node.line)
        for node in ast.walk(expr)
        if isinstance(node, ast.Name)
    ]


def _check_bindings(
    block: ast.Block, bound: set[str], diagnostics: list[Diagnostic]
) -> set[str]:
    """Flow-sensitive binding check; returns bindings live after *block*.

    Branch joins keep only names bound on **both** arms; loop bodies are
    analysed with their entry bindings (a name first bound inside the
    body counts as bound for later statements of the same iteration).
    """
    live = set(bound)
    for stmt in block.statements:
        for expr in _statement_exprs(stmt):
            for name, line in _expr_names(expr):
                if name not in live:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            line,
                            f"variable {name!r} may be used before assignment",
                        )
                    )
        if isinstance(stmt, (ast.Assign, ast.Recv, ast.Bcast)):
            live.add(stmt.target)
        elif isinstance(stmt, ast.If):
            then_live = _check_bindings(stmt.then_block, live, diagnostics)
            else_live = _check_bindings(stmt.else_block, live, diagnostics)
            live = then_live & else_live
        elif isinstance(stmt, ast.While):
            _check_bindings(stmt.body, live, diagnostics)
        elif isinstance(stmt, ast.For):
            _check_bindings(stmt.body, live | {stmt.var}, diagnostics)
    return live


def _statement_exprs(stmt: ast.Stmt) -> list[ast.Expr]:
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.Send):
        return [stmt.dest, stmt.value]
    if isinstance(stmt, ast.Recv):
        return [stmt.source]
    if isinstance(stmt, ast.Bcast):
        return [stmt.root, stmt.value]
    if isinstance(stmt, ast.Compute):
        return [stmt.cost]
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.cond]
    if isinstance(stmt, ast.For):
        return [stmt.count]
    return []


# ---------------------------------------------------------------------------
# Endpoint range and self-send checks
# ---------------------------------------------------------------------------


def _check_endpoints(
    program: ast.Program,
    universe_sizes: tuple[int, ...],
    diagnostics: list[Diagnostic],
) -> None:
    points = universe_points(universe_sizes)
    for node in ast.walk(program):
        if isinstance(node, ast.Send):
            values = evaluate(node.dest, *points)
            _check_endpoint(values, points, node.line, "destination",
                            diagnostics)
            _check_self_send(values, points, node.line, diagnostics)
        elif isinstance(node, ast.Recv):
            _check_endpoint(evaluate(node.source, *points), points,
                            node.line, "source", diagnostics)
        elif isinstance(node, ast.Bcast):
            _check_endpoint(evaluate(node.root, *points), points,
                            node.line, "broadcast root", diagnostics)


def _check_endpoint(
    values: list[int | None],
    points: tuple[list[int], list[int]],
    line: int,
    role: str,
    diagnostics: list[Diagnostic],
) -> None:
    """Flag endpoints out of range for EVERY rank in EVERY size."""
    if not values or None in values:
        return  # not statically decidable: no diagnostic
    _, nprocs = points
    if not any(0 <= value < n for value, n in zip(values, nprocs)):
        diagnostics.append(
            Diagnostic(
                "error",
                line,
                f"{role} is out of range [0, nprocs) for every system size",
            )
        )


def _check_self_send(
    values: list[int | None],
    points: tuple[list[int], list[int]],
    line: int,
    diagnostics: list[Diagnostic],
) -> None:
    """Flag sends whose destination always equals the sender's rank."""
    if not values or None in values:
        return
    ranks, _ = points
    if all(value == rank for value, rank in zip(values, ranks)):
        diagnostics.append(
            Diagnostic(
                "error",
                line,
                "send targets the sender itself (deadlocks under "
                "blocking receives)",
            )
        )


# ---------------------------------------------------------------------------
# Checkpoint balance
# ---------------------------------------------------------------------------


def _check_balance(
    program: ast.Program, diagnostics: list[Diagnostic]
) -> None:
    from repro.cfg.builder import build_cfg
    from repro.cfg.paths import index_checkpoints

    indexing = index_checkpoints(build_cfg(program))
    if not indexing.balanced:
        diagnostics.append(
            Diagnostic(
                "warning",
                program.line,
                "checkpoint counts differ across paths "
                f"{list(indexing.path_counts)}; straight cuts are undefined "
                "until Phase I/III balance them",
            )
        )
