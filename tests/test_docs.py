"""The docs cite evidence that exists and quote the committed results.

EXPERIMENTS.md records every paper claim next to the test that checks
it, so a renamed test, a deleted tool or a regenerated result must
update the docs in the same change.
"""

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
