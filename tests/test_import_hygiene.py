"""Import hygiene: no unused imports in the library, tools, examples
and tests, the third-party imports match ``pyproject.toml``, and a
process imports only what its command runs.

The first two are a lightweight AST-based substitute for an external
linter (``ruff`` is not installed everywhere tier-1 runs).
``__init__.py`` files are exempt — their imports are re-exports. An
import counts as used only where code names it: a docstring or a
message that mentions it does not.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
REPO = SRC.parent.parent


def _module_files():
    tops = [SRC] + [REPO / name for name in ("tools", "examples", "tests")]
    return sorted(
        path for top in tops for path in top.rglob("*.py")
        if path.name != "__init__.py"
    )


def _module_id(path: Path) -> str:
    """A library module by its package path, any other by its repo path."""
    return str(path.relative_to(SRC if path.is_relative_to(SRC) else REPO))


def _imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                names[bound] = node.lineno
    return names


def _words(text: str) -> list[str]:
    """The dotted-name parts of a string annotation."""
    for mark in "[].,\"":
        text = text.replace(mark, " ")
    return text.split()


def _used_names(tree):
    """Names *tree* uses as code.

    Strings count only as string annotations (``x: "Foo"``) and
    ``__all__`` entries: a name that a docstring or a message merely
    mentions is not a use, so prose cannot keep a dead import alive.
    """
    used = set()
    texts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # record the base of dotted access (module.attr)
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            texts.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            texts.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            texts.append(node.value)
    for text in filter(None, texts):
        for node in ast.walk(text):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_words(node.value))
    return used


@pytest.mark.parametrize("path", _module_files(), ids=_module_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used and name != "annotations"
    ]
    assert not unused, f"{path.name}: unused imports: {unused}"


def _declared(key: str) -> set[str]:
    """The package names in ``pyproject.toml``'s ``key = [...]`` list."""
    text = (REPO / "pyproject.toml").read_text()
    block = re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S).group(1)
    return set(re.findall(r'"([\w.-]+)', block))


def _third_party(top: Path) -> set[str]:
    """Top-level modules imported under *top* that are neither the
    standard library, ``repro``, nor a module of this checkout."""
    found = set()
    for path in top.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                name = module.partition(".")[0]
                local = (REPO / name).exists() or (
                    path.parent / f"{name}.py"
                ).exists()
                if not (
                    name in sys.stdlib_module_names or name == "repro" or local
                ):
                    found.add(name)
    return found


def test_src_imports_exactly_the_runtime_dependencies():
    assert _third_party(SRC) == _declared("dependencies")


def test_tests_import_only_declared_dependencies():
    declared = _declared("dependencies") | _declared("dev")
    assert _third_party(REPO / "tests") <= declared


def _run_fresh(script: str) -> list[str]:
    """Run *script* in a fresh interpreter; the words it prints."""
    done = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return done.stdout.split()


def test_a_transform_and_a_cell_load_no_analysis_stack_or_pool():
    # Phases I-III, a serial campaign cell and ``repro simulate`` (a
    # one-cell campaign) use none of the §4 model, numpy or the process
    # pool; those load on first use only.
    loaded = _run_fresh("""
import contextlib
import io
import sys
from repro.campaign import ScenarioSpec, run_campaign
from repro.cli import main
from repro.lang.parser import parse
from repro.lang.programs import RING_PIPELINE_SOURCE
from repro.phases.pipeline import transform
transform(parse(RING_PIPELINE_SOURCE))
spec = ScenarioSpec(label="cell", program=RING_PIPELINE_SOURCE,
                    n_processes=3, params={"steps": 3})
assert run_campaign([spec], jobs=1).cells["cell"].ok
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "@ring_pipeline", "-n", "3", "--steps", "4"]) == 0
print(*sys.modules)
""")
    heavy = {"numpy", "multiprocessing", "concurrent.futures.process"}
    assert heavy.isdisjoint(loaded)
    analysis = {name for name in loaded if name.startswith("repro.analysis.")}
    assert analysis <= {"repro.analysis.optimal_interval"}


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    printed = _run_fresh("""
import repro.analysis
from repro import figure8_series
print(figure8_series.__module__,
      repro.analysis.simulate_interval_time.__module__)
""")
    assert printed == ["repro.analysis.comparison", "repro.analysis.montecarlo"]
