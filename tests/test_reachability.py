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
method under ``src/repro`` must be named by production code: elsewhere
in ``src`` (docstrings, comments and the export tables ``__all__`` and
``_EXPORTS`` do not count) or in the benchmark, tools or examples. A
definition only tests call belongs with those tests. The one allowlist
holds the §4 models the tests check but no command runs, and it can
only shrink.

Structure: no ``runtime`` module passes 800 lines, and each name the
engine split moved is defined in its one home module. Protocols leave
the run's statistics to the engine and their timers to the two timer
bases in ``protocols/base.py``. One table lists what was deleted from
``src/repro`` or moved to the tests and must stay out: the options and
methods only tests used, the span tracker's sim-time surface, the path
enumerator (the test oracle ``tests/cfg/path_enumeration.py``) and the
other test oracles. The span tracker is wall-clock only, and
``RunConfig`` declares exactly the run knobs something outside the
tests sets.
Names deleted outright are pinned in
``tests/test_tools.py::RETIRED_NAMES``.
"""

import ast
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

from repro.runtime.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Production code besides ``src``: any mention in these trees is a use.
PRODUCTION_TREES = ("bench", "tools", "examples")

#: The export tables: naming a definition there does not use it.
EXPORT_TABLES = frozenset({"__all__", "_EXPORTS"})

#: §4 models that ``tests/analysis`` checks against the paper's closed
#: forms and that no command, benchmark or tool runs. Only shrinks.
MODEL_ONLY = frozenset({
    "repro.analysis.availability.simulate_unprotected_completion",
    "repro.analysis.comparison.failure_probability_series",
    "repro.analysis.markov.expected_interval_time",
    "repro.analysis.optimal_interval.daly_interval",
    "repro.analysis.overhead.failure_free_ratio",
    "repro.analysis.sensitivity.sensitivity_sweep",
})

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


def _definitions(tree: ast.Module):
    """``(node, name, qualified suffix)`` of every pinned definition."""
    for node in tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield node, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not re.fullmatch(r"__\w+__", item.name):
                    yield item, item.name, f"{node.name}.{item.name}"


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants in *tree*."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (
            ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
        )) and ast.get_docstring(node, clean=False) is not None:
            found.add(id(node.body[0].value))
    return found


def _code_mentions(tree: ast.Module):
    """``(word, line)`` of each name *tree*'s code mentions: identifiers,
    attributes, imports and the words of string literals, outside
    docstrings and export tables."""
    skipped = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(
                isinstance(t, ast.Name) and t.id in EXPORT_TABLES
                for t in targets
            ):
                skipped.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in re.findall(r"[A-Za-z_]\w*", node.value):
                yield word, node.lineno


def _unnamed_definitions() -> list[str]:
    """Definitions no production code names besides the definition."""
    elsewhere: Counter = Counter()
    for tree in PRODUCTION_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            elsewhere.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    trees = {
        module: ast.parse(path.read_text())
        for module, path in _modules().items()
    }
    # word -> [(module, line)] of every mention in src.
    mentions: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for word, line in _code_mentions(tree):
            mentions.setdefault(word, []).append((module, line))
    unnamed = []
    for module, tree in trees.items():
        for node, name, suffix in _definitions(tree):
            if elsewhere[name] or any(
                where != module or not node.lineno <= line <= node.end_lineno
                for where, line in mentions.get(name, ())
            ):
                continue
            unnamed.append(f"{module}.{suffix}")
    return sorted(unnamed)


def test_every_definition_is_named_by_production_code():
    unnamed = set(_unnamed_definitions()) - MODEL_ONLY
    assert unnamed == set(), "only tests name these: move them there"


def test_the_model_allowlist_only_shrinks():
    assert {name.rpartition(".")[0] for name in MODEL_ONLY} <= set(
        _modules()
    ), "allowlisted model's module is gone: drop it"
    assert all(name.startswith("repro.analysis.") for name in MODEL_ONLY)
    assert MODEL_ONLY <= set(_unnamed_definitions()), (
        "allowlisted model is gone or used in production: drop it"
    )


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
    **dict.fromkeys(("Simulation", "make_backend"), "repro.runtime.engine"),
    **dict.fromkeys(
        ("Effect", "FrameState", "ProcessSnapshot"), "repro.runtime.effects"
    ),
}

#: Moved names another subsystem may well define for itself: their one
#: home is checked among the engine modules only.
GENERIC_NAMES = frozenset({
    "Scheduler", "Dispatch", "Commit", "Recovery", "_Status", "_Proc",
    "pause", "resume", "_loop", "_next_item", "_push", "_reschedule",
    "_resync", "_perform", "_tick", "_restart", "_finish",
})


def _defined_names(path: Path) -> set[str]:
    """Module-level functions, classes and assignments, and methods."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
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


def test_the_span_tracker_stays_wall_clock_only():
    init = _methods("obs/spans.py", "SpanTracker")["__init__"]
    assert _parameters(init) == {"self", "wall_clock"}
    spans = (SRC / "repro" / "obs" / "spans.py").read_text()
    assert re.search(r"sim_(start|end|duration)", spans) is None


# -- structure pins: what left src/repro stays out ---------------------------

#: The once-through path enumerator and the queries only tests used; they
#: live in the test oracle ``tests/cfg/path_enumeration.py``. Module
#: level only: ``ExtendedCFG.find_path`` searches witnesses.
PATH_ORACLE_NAMES = (
    "acyclic_paths", "once_through_successors", "enumerate_checkpoints",
    "CheckpointEnumeration", "DEFAULT_PATH_LIMIT", "find_path",
    "reachable_from", "checkpoint_columns",
)

#: ``(module, name)`` rows that must not be defined: *module* is a path
#: under ``src/repro``, or ``"*"`` for every module there; *name* is a
#: module-level definition, ``Class.method`` or ``function(parameter)``.
ABSENT = [
    # Options and reads only tests used.
    ("campaign/executor.py", "run_campaign(registry)"),
    ("campaign/executor.py", "ExecutorStats.publish"),
    ("campaign/cache.py", "TransformCache.__init__(registry)"),
    ("runtime/storage.py", "CheckpointStore.latest_with_number"),
    # The span tracker's explicit and sim-time surface.
    *(
        ("obs/spans.py", f"SpanTracker.{name}")
        for name in ("open", "close", "wall_totals", "by_name", "_publish")
    ),
    *(("*", name) for name in PATH_ORACLE_NAMES),
    # Oracles that live with their tests: the delta reconstruction
    # (tests/runtime/delta_oracle.py), the shipped programs' parameters
    # (tests/shipped_params.py) and the MPMD role lookup.
    ("runtime/encoding.py", "apply_delta"),
    ("lang/programs.py", "default_params"),
    ("lang/mpmd.py", "role_of_rank"),
]


def _defines(path: Path, name: str) -> bool:
    """Whether *path* defines *name*, as an :data:`ABSENT` row spells it."""
    name, _, parameter = name.rstrip(")").partition("(")
    scope, _, member = name.rpartition(".")
    body = ast.parse(path.read_text()).body
    if scope:
        body = [
            item for node in body
            if isinstance(node, ast.ClassDef) and node.name == scope
            for item in node.body
        ]
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = node.name == member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not scope:
            targets = getattr(node, "targets", None) or [node.target]
            found = any(
                isinstance(t, ast.Name) and t.id == member for t in targets
            )
        else:
            continue
        if found and (
            not parameter
            or isinstance(node, ast.FunctionDef)
            and parameter in _parameters(node)
        ):
            return True
    return False


def test_what_left_the_source_tree_stays_out():
    modules = {
        str(path.relative_to(SRC / "repro")): path
        for path in _modules().values()
    }
    present = [
        (module, name) for module, name in ABSENT
        for path in (modules.values() if module == "*" else [modules[module]])
        if _defines(path, name)
    ]
    assert present == []


# -- structure pins: the run knobs ------------------------------------------


def test_run_config_declares_only_knobs_used_outside_the_tests():
    # The transport tunables and the compute-event trace switch were
    # only ever set by tests; their oracle is a test-side patch
    # (``tests/chaos/broken_transport.py``).
    assert [f.name for f in fields(RunConfig)] == [
        "seed", "base_latency", "storage_replicas", "max_storage_retries",
        "max_steps", "costs", "retain_k", "backend", "checkpoint_mode",
    ]
