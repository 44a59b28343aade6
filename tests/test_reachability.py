"""Reachability pins: ``src/repro`` ships only what something uses.

Modules: walks the static import graph — every ``import`` statement in
a module, function-local ones included — from ``repro.cli`` and
``repro.__main__``. Importing a module also imports each package above
it, so a package's ``__init__`` re-exports count as edges — the lazy
ones too, which a package lists as the module keys of its ``_EXPORTS``
table (``repro.lazy``) instead of import statements. Every module
under ``src/repro`` must be reached, except the named allowlist below;
and an allowlisted module that becomes reachable fails too, so the list
can only shrink.

Definitions: every module-level function or class and every non-dunder
method under ``src/repro`` must be named somewhere besides its own
definition — in the package, its tests, tools, benchmark, examples or
documentation.

Structure: no ``runtime`` module passes 800 lines, and each name the
engine split moved is defined in its one home module. Protocols leave
the run's statistics to the engine and their timers to the two timer
bases in ``protocols/base.py``. The campaign runner and the span
tracker keep none of the options and methods only tests used, and the
span tracker is wall-clock only. No path enumerator is defined under
``src/repro``: it is the test oracle ``tests/cfg/path_enumeration.py``.
Names deleted outright are pinned in
``tests/test_tools.py::RETIRED_NAMES``.
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
    """Every dotted name *path*'s import statements, or its lazy
    ``_EXPORTS`` table, mention."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Assign)
            and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]
        ):
            yield from (ast.literal_eval(key) for key in node.value.keys)
        elif isinstance(node, ast.Import):
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


# -- structure pins: one module per engine decision -------------------------

#: Each name the engine split moved, with the one module that defines it.
ENGINE_HOMES = {
    **dict.fromkeys((
        "BACKENDS", "CHECKPOINT_MODES", "RuntimeCosts", "RunConfig",
        "SimulationStats", "SimulationResult",
    ), "repro.runtime.config"),
    **dict.fromkeys((
        "_Status", "_Proc", "Scheduler", "send_control", "schedule_timer",
        "pause", "resume", "_loop", "_run_ahead", "_next_item", "_push",
        "_reschedule", "_arrival_notifier", "_resync", "_awaited_message",
        "_finish", "_recount_done",
    ), "repro.runtime.scheduler"),
    **dict.fromkeys((
        "Dispatch", "_execute_process", "_perform", "_send_app_message",
        "_complete_receive", "_apply_storage_fault", "_apply_crash", "_tick",
    ), "repro.runtime.dispatch"),
    **dict.fromkeys((
        "Commit", "take_checkpoint", "_store_checkpoint",
        "_rewind_commits", "_take_write_fault",
    ), "repro.runtime.commit"),
    **dict.fromkeys((
        "RecoverySupervisor", "Recovery", "recovery_escalation",
        "record_fallback", "restore_cut", "restore_single", "_restart",
        "_refuse_corrupt", "MAX_RECOVERY_ATTEMPTS", "RECOVERY_BACKOFF_BASE",
        "RECOVERY_BACKOFF_FACTOR",
    ), "repro.runtime.recovery"),
    "Simulation": "repro.runtime.engine",
}

#: Moved names another subsystem may well define for itself: their one
#: home is checked among the engine modules only.
GENERIC_NAMES = frozenset({
    "Scheduler", "Dispatch", "Commit", "Recovery", "_Status", "_Proc",
    "pause", "resume", "_loop", "_next_item", "_push", "_reschedule",
    "_resync", "_perform", "_tick", "_restart", "_finish",
})


def _defined_names(path: Path, methods: bool = True) -> set[str]:
    """Module-level functions, classes and assignments, and methods
    unless *methods* is false."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if methods and isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def test_no_runtime_module_exceeds_800_lines():
    long = {
        path.name: lines
        for path in (SRC / "repro" / "runtime").glob("*.py")
        if (lines := len(path.read_text().splitlines())) > 800
    }
    assert long == {}


def test_each_engine_name_has_one_home():
    engine = set(ENGINE_HOMES.values())
    homes: dict[str, set[str]] = {name: set() for name in ENGINE_HOMES}
    for module, path in _modules().items():
        for name in _defined_names(path) & homes.keys():
            if module in engine or name not in GENERIC_NAMES:
                homes[name].add(module)
    assert {
        name: modules for name, modules in homes.items()
        if modules != {ENGINE_HOMES[name]}
    } == {}


# -- structure pins: protocols decide, the engine accounts -------------------

PROTOCOLS = SRC / "repro" / "protocols"


def test_no_protocol_writes_the_run_statistics():
    """Fallback accounting is ``Recovery.record_fallback``'s alone."""
    writes = []
    for path in PROTOCOLS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                targets = [node.func.value]  # a mutating method call
            else:
                continue
            writes.extend(
                f"{path.name}:{node.lineno}" for target in targets
                if re.match(r"sim\.stats\b", ast.unparse(target))
            )
    assert writes == []


def test_only_the_timer_bases_schedule_timers():
    callers = {
        path.name
        for path in PROTOCOLS.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "schedule_timer"
    }
    assert callers == {"base.py"}


# -- structure pins: one campaign runner, a wall-clock span tracker ----------


def _top_level(relative: str, name: str):
    """The module-level definition *name* in ``src/repro/<relative>``."""
    tree = ast.parse((SRC / "repro" / relative).read_text())
    (node,) = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name == name
    ]
    return node


def _methods(relative: str, cls: str) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item for item in _top_level(relative, cls).body
        if isinstance(item, ast.FunctionDef)
    }


def _parameters(function: ast.FunctionDef) -> set[str]:
    arguments = function.args
    return {
        arg.arg for arg in [
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
        ]
    }


def test_test_only_campaign_options_stay_removed():
    assert "registry" not in _parameters(
        _top_level("campaign/executor.py", "run_campaign")
    )
    assert "publish" not in _methods("campaign/executor.py", "ExecutorStats")
    init = _methods("campaign/cache.py", "TransformCache")["__init__"]
    assert _parameters(init) == {"self", "root"}


def test_the_span_tracker_stays_wall_clock_only():
    methods = _methods("obs/spans.py", "SpanTracker")
    assert methods.keys() & {
        "open", "close", "wall_totals", "by_name", "_publish",
    } == set()
    assert _parameters(methods["__init__"]) == {"self", "wall_clock"}
    spans = (SRC / "repro" / "obs" / "spans.py").read_text()
    assert re.search(r"sim_(start|end|duration)", spans) is None


# -- structure pins: path enumeration lives with its tests -------------------

#: The once-through path enumerator and the queries only tests used; they
#: live in the test oracle ``tests/cfg/path_enumeration.py``.
PATH_ORACLE_NAMES = frozenset({
    "acyclic_paths", "once_through_successors", "enumerate_checkpoints",
    "CheckpointEnumeration", "DEFAULT_PATH_LIMIT", "find_path",
    "reachable_from", "checkpoint_columns",
})


def test_no_path_enumerator_in_the_source_tree():
    # Module level only: ``ExtendedCFG.find_path`` searches witnesses.
    defined = {
        f"{module}.{name}"
        for module, path in _modules().items()
        for name in _defined_names(path, methods=False) & PATH_ORACLE_NAMES
    }
    assert defined == set()


def test_storage_keeps_no_test_only_reads():
    assert "latest_with_number" not in _methods(
        "runtime/storage.py", "CheckpointStore"
    )
