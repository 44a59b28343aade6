"""Reachability pin: ``src/repro`` ships only what the command line reaches.

Walks the static import graph — every ``import`` statement in a module,
function-local ones included — from ``repro.cli`` and ``repro.__main__``.
Importing a module also imports each package above it, so a package's
``__init__`` re-exports count as edges. Every module under
``src/repro`` must be reached, except the named allowlist below; and an
allowlisted module that becomes reachable fails too, so the list can
only shrink.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOTS = ("repro.cli", "repro.__main__")

#: Modules nothing on the command line imports today, with their one
#: way out each: moved next to their only user or deleted.
UNREACHED = frozenset({
    "repro.lang.generator",
    "repro.lang.mpmd",
    "repro.phases.calibration",
})


def _modules() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path):
    """Every dotted name *path*'s import statements mention."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            # ``from package import submodule`` imports the submodule.
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _reached(modules: dict[str, Path]) -> set[str]:
    reached: set[str] = set()
    pending = list(ROOTS)
    while pending:
        name = pending.pop()
        # A module's import runs every package ``__init__`` above it.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                pending.extend(_imports(prefix, modules[prefix]))
    return reached


def test_every_module_is_reached_from_the_command_line():
    modules = _modules()
    unreached = set(modules) - _reached(modules)
    assert unreached - UNREACHED == set(), "unreached modules"


def test_the_allowlist_only_shrinks():
    modules = _modules()
    assert UNREACHED <= set(modules), "allowlisted module is gone: drop it"
    assert UNREACHED & _reached(modules) == set(), (
        "allowlisted module is reached now: drop it from UNREACHED"
    )
