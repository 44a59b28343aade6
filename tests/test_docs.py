"""The docs cite evidence that exists and quote the committed results.

EXPERIMENTS.md records every paper claim next to the test that checks
it, so a renamed test, a deleted tool or a regenerated result must
update the docs in the same change.
"""

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
