"""The docs cite evidence that exists and quote the committed results.

EXPERIMENTS.md records every paper claim next to the test that checks
it, so a renamed test, a deleted tool or a regenerated result must
update the docs in the same change.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text()
RESULTS = REPO_ROOT / "results"

DOCS = ["EXPERIMENTS.md", "DESIGN.md", "README.md"] + sorted(
    f"docs/{path.name}" for path in (REPO_ROOT / "docs").glob("*.md")
)

#: A backticked path into the checkout; a ``::test`` suffix, arguments
#: or a closing backtick end it.
CITED_PATH = re.compile(r"`((?:tests|tools|examples|results|src)/[^`\s:]*)")


def _exists(path: str) -> bool:
    if "*" in path:
        return any(REPO_ROOT.glob(path))
    return (REPO_ROOT / path).exists()


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    text = (REPO_ROOT / doc).read_text()
    missing = sorted(
        {path for path in CITED_PATH.findall(text) if not _exists(path)}
    )
    assert missing == []


def test_every_validation_row_names_a_test_file():
    rows = re.findall(r"^\| (V\d+) \|.*\| ([^|]*) \|$", EXPERIMENTS, re.M)
    assert [v for v, _ in rows] == [f"V{i}" for i in range(1, len(rows) + 1)]
    for v, where in rows:
        tests = [
            path for path in CITED_PATH.findall(where)
            if path.startswith("tests/") and (REPO_ROOT / path).is_file()
        ]
        assert tests, f"{v} names no test file: {where}"


def _section(title: str) -> str:
    """EXPERIMENTS.md from the ``## title`` heading to the next one."""
    return EXPERIMENTS.split(f"\n## {title}", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("title, result", [
    ("Figure 8", "figure8.txt"),
    ("Figure 9", "figure9.txt"),
    ("Validation experiments", "protocol_comparison.txt"),
])
def test_quoted_tables_are_committed_results(title, result):
    block = _section(title).split("```\n", 2)[1]
    quoted = [line for line in block.splitlines() if line.strip()]
    assert quoted
    committed = (RESULTS / result).read_text().splitlines()
    assert [line for line in quoted if line not in committed] == []


def test_quoted_gamma_values_are_committed_results():
    values = re.findall(r"^\|[^|]+\| ([\d.]+(?: ± [\d.]+)?) \|$",
                        _section("Figure 7"), re.M)
    assert len(values) == 4
    committed = (RESULTS / "figure7_markov.txt").read_text()
    for value in values:
        assert f": {value.replace('±', '+/-')}\n" in committed, value


#: A committed full benchmark run, cited by path.
BENCH_RUN = re.compile(r"results/BENCH_run_\w+\.json")
#: A quoted number; digits inside an identifier (``p50``, ``pr31``,
#: ``V9``) are not quotes.
QUOTED_NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?!\w)")


def _sentences(text: str) -> list[str]:
    """The prose sentences and table-cell sentences of a markdown text
    (fenced code skipped; a paragraph or list item is joined first)."""
    units: list[str] = []
    paragraph: list[str] = []
    fenced = False
    for line in text.splitlines() + [""]:
        stripped = line.strip()
        if stripped.startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        starts_unit = not stripped or stripped.startswith(("|", "#", "- "))
        if starts_unit and paragraph:
            units.append(" ".join(paragraph))
            paragraph = []
        if stripped.startswith("|"):
            units.extend(stripped.strip("|").split("|"))
        elif stripped:
            paragraph.append(stripped)
    return [
        sentence
        for unit in units
        for sentence in re.split(r"(?<=\.)\s+", unit)
    ]


def _bench_numbers(path: str) -> tuple[set[str], list[float]]:
    """The integers (as text) and all numbers of one result file,
    including those inside its strings."""
    integers: set[str] = set()
    numbers: list[float] = []

    def visit(value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, int):
            integers.add(str(value))
            numbers.append(float(value))
        elif isinstance(value, float):
            numbers.append(value)
        elif isinstance(value, str):
            for token in QUOTED_NUMBER.findall(value):
                if "." not in token:
                    integers.add(token)
                numbers.append(float(token))
        elif isinstance(value, dict):
            for item in value.values():
                visit(item)
        elif isinstance(value, list):
            for item in value:
                visit(item)

    visit(json.loads((REPO_ROOT / path).read_text()))
    return integers, numbers


def _appears(token: str, files: list[tuple[set[str], list[float]]]) -> bool:
    """*token* is some number of *files* at the token's precision."""
    if "." not in token:
        return any(token in integers for integers, _ in files)
    places = len(token.split(".")[1])
    return any(
        f"{number:.{places}f}" == token
        for _, numbers in files
        for number in numbers
    )


@pytest.mark.parametrize("doc", DOCS)
def test_numbers_quoted_from_bench_runs_are_in_them(doc):
    """A sentence that cites a ``results/BENCH_run_*.json`` file quotes
    only numbers that file holds, at the quoted precision."""
    drifted = []
    for sentence in _sentences((REPO_ROOT / doc).read_text()):
        cited = sorted(set(BENCH_RUN.findall(sentence)))
        if not cited:
            continue
        files = [_bench_numbers(path) for path in cited]
        for token in QUOTED_NUMBER.findall(BENCH_RUN.sub("", sentence)):
            if not _appears(token, files):
                drifted.append((token, sentence))
    assert drifted == []


def test_readme_chaos_snippet_runs(capsys):
    blocks = re.findall(
        r"```python\n(.*?)```", (REPO_ROOT / "README.md").read_text(), re.S
    )
    (snippet,) = [block for block in blocks if "chaos_sweep" in block]
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "None\n"


#: A ``repro CMD …`` invocation (``python -m repro CMD …`` included):
#: the command and the rest of its shell line (up to a comment, pipe or
#: ``;``), code span or table cell.
INVOCATION = re.compile(r"(?<![\w.])repro (\w+)([^\n`|;&#]*)")
#: An option word: ``--flag`` or ``-x`` (``--flag=VALUE`` included).
OPTION = re.compile(r"(?<![\w-])(--?[A-Za-z][\w-]*)")


def _subcommands(parser) -> dict:
    """The subcommand parsers of *parser*, by name."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _options(text: str) -> list:
    """``(invocation, accepted)`` for every option word *text* passes to
    a ``repro`` subcommand (``\\`` continuations joined)."""
    from repro.cli import build_parser

    commands = _subcommands(build_parser())
    found = []
    for command, rest in INVOCATION.findall(text.replace("\\\n", " ")):
        parser = commands.get(command)
        if parser is None:
            continue
        words = rest.split()
        nested = _subcommands(parser)
        if words and words[0] in nested:
            parser = nested[words[0]]
        accepted = {
            option
            for action in parser._actions
            for option in action.option_strings
        }
        for option in OPTION.findall(rest):
            found.append((f"repro {command} {option}", option in accepted))
    return found


def test_documented_repro_flags_exist():
    """Every ``--flag``/``-x`` a doc passes to ``repro CMD`` is one that
    subcommand accepts, so a deleted or renamed flag cannot linger."""
    checked, stale = 0, []
    for doc in DOCS + ["examples/README.md"]:
        for invocation, ok in _options((REPO_ROOT / doc).read_text()):
            checked += 1
            if not ok:
                stale.append((doc, invocation))
    assert stale == []
    assert checked > 50


@pytest.mark.parametrize("line, removed", [
    ("repro campaign @quick --inject-fault 'crash:cell=0'",
     "repro campaign --inject-fault"),
    ("python -m repro chaos --seeds 2 --executor-faults 0.5",
     "repro chaos --executor-faults"),
    ("repro chaos --seeds 2 \\\n    --executor-fault-seed 7",
     "repro chaos --executor-fault-seed"),
    ("repro chaos --broken-transport", "repro chaos --broken-transport"),
], ids=["inject-fault", "executor-faults", "executor-fault-seed",
        "broken-transport"])
def test_a_removed_flag_reads_stale(line, removed):
    """The executor fault-injection and broken-transport flags are gone
    from the CLI, and the pin above would flag a doc that still names
    one."""
    found = _options(f"```bash\n{line}\n```\n")
    assert [invocation for invocation, ok in found if not ok] == [removed]


def test_current_flags_read_accepted():
    line = (
        "repro campaign @quick -j 2 --timeout 5 \\\n"
        "    --retries 1 --metrics-out m.json"
    )
    assert _options(line) == [
        ("repro campaign -j", True),
        ("repro campaign --timeout", True),
        ("repro campaign --retries", True),
        ("repro campaign --metrics-out", True),
    ]


def _architecture_block() -> dict[str, list[str]]:
    """README's *Architecture* block as ``{package: module names}``.

    An entry starts at ``src/repro/`` (the top-level modules, under
    ``""``) or at an indented ``package/``; outside its parentheses, an
    entry's text is the comma-separated list of its module names.
    """
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("\n## Architecture\n", 1)[1].split("```\n", 2)[1]
    entries: dict[str, str] = {}
    package = None
    for line in block.splitlines():
        head = re.match(r"(?:src/repro/|  (\w+)/)\s*(.*)", line)
        if head:
            package = head.group(1) or ""
            entries[package] = head.group(2)
        else:
            entries[package] += " " + line.strip()
    listed = {}
    for package, text in entries.items():
        while re.search(r"\([^()]*\)", text):
            text = re.sub(r"\([^()]*\)", "", text)
        listed[package] = sorted(name.strip() for name in text.split(","))
    return listed


def test_readme_architecture_names_every_module_and_only_those():
    source = REPO_ROOT / "src" / "repro"
    modules: dict[str, list[str]] = {}
    for path in source.rglob("*.py"):
        *packages, name = path.relative_to(source).with_suffix("").parts
        names = modules.setdefault(".".join(packages), [])
        if name != "__init__":
            names.append(name)
    assert _architecture_block() == {
        package: sorted(names) for package, names in modules.items()
    }


def test_run_configuration_table_is_the_run_config():
    # docs/architecture.md *Run configuration*: one row per field, in
    # declaration order, with the dataclass default.
    from dataclasses import fields

    from repro.runtime.config import RunConfig

    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    section = text.split("\n## Run configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)`", section, re.M)
    assert rows == [(f.name, str(f.default)) for f in fields(RunConfig)]
