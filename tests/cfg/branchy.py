"""Exponential-path inputs for the checkpoint indexing and Condition 1 tests."""

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import to_source


def branchy_program(branches: int) -> ast.Program:
    """``branches`` sequential if/else diamonds, one checkpoint per arm.

    Every once-through path crosses exactly ``branches`` checkpoints
    (balanced), and there are ``2^branches`` such paths.
    """
    lines = ["program branchy():", "    x = init(myrank)"]
    for index in range(branches):
        lines += [
            f"    if x % 2 == {index % 2}:",
            "        checkpoint",
            "        x = x + 1",
            "    else:",
            "        checkpoint",
            "        x = x + 2",
        ]
    return parse("\n".join(lines) + "\n")


def widened(program: ast.Program, diamonds: int) -> ast.Program:
    """*program* with ``diamonds`` checkpoint-free if/else diamonds on
    ``x`` after its first statement.

    Each diamond doubles the once-through paths and leaves every path's
    checkpoints as they were.
    """
    header, first, *rest = to_source(program).splitlines()
    lines = [header, first]
    for index in range(diamonds):
        lines += [
            f"    if x % 2 == {index % 2}:",
            "        x = x + 1",
            "    else:",
            "        x = x + 2",
        ]
    return parse("\n".join(lines + rest) + "\n")
