"""Reachability pins: ``src/repro`` ships only what something uses.

Modules: walks the static import graph — every ``import`` statement in
a module, function-local ones included — from ``repro.cli`` and
``repro.__main__``. Importing a module also imports each package above
it, so a package's ``__init__`` re-exports count as edges. Every module
under ``src/repro`` must be reached, except the named allowlist below;
and an allowlisted module that becomes reachable fails too, so the list
can only shrink.

Definitions: every module-level function or class and every non-dunder
method under ``src/repro`` must be named somewhere besides its own
definition — in the package, its tests, tools, benchmark, examples or
documentation.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where a definition may be named: code trees, then single documents.
CORPUS = ("src", "tests", "tools", "bench", "examples", "docs")
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

ROOTS = ("repro.cli", "repro.__main__")

#: Modules nothing on the command line imports today, with their one
#: way out each: moved next to their only user or deleted.
UNREACHED = frozenset({
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


def _definitions():
    """``(qualified name, name)`` of every pinned definition."""
    for module, path in _modules().items():
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not re.fullmatch(r"__\w+__", item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _corpus_words() -> Counter:
    words: Counter = Counter()
    paths = [ROOT / name for name in DOCUMENTS]
    for tree in CORPUS:
        paths.extend((ROOT / tree).rglob("*.py"))
        paths.extend((ROOT / tree).rglob("*.md"))
    for path in paths:
        words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


def test_every_definition_is_named_besides_its_definition():
    words = _corpus_words()
    definitions = list(_definitions())
    defined = Counter(name for _, name in definitions)
    unnamed = sorted(
        qualified for qualified, name in definitions
        if words[name] <= defined[name]
    )
    assert unnamed == [], "defined but never named: delete or use them"
