"""Tests for the results-regeneration tool, the collector probe, the
benchmark's layer table, and the CI workflow's references into the
checkout."""

import gc
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tool():
    return load_by_path(
        "regenerate_results", REPO_ROOT / "tools" / "regenerate_results.py"
    )


class TestBenchLayerTable:
    def test_every_entry_point_resolves(self):
        # A moved entry point does not fail the benchmark: its per-layer
        # metrics silently read null. Fail here instead.
        layers = load_by_path("bench_layers", REPO_ROOT / "bench" / "layers.py")
        for name, target in layers.ENTRY_POINTS.items():
            module_name, _, attribute = target.partition(":")
            module = importlib.import_module(module_name)
            assert hasattr(module, attribute), f"{name}: {target} has moved"


class TestCiWorkflow:
    """CI's shape, and the files and options its steps name."""

    WORKFLOW = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()

    def job(self, name):
        """The text of job *name*, up to the next job."""
        match = re.search(
            rf"^  {name}:\n(.*?)(?=^  \S|\Z)", self.WORKFLOW, re.M | re.S
        )
        assert match, f"no {name} job"
        return match.group(1)

    def test_tests_job_only_runs_pytest(self):
        # Every check is a test pytest collects, so a local tier-1 run
        # sees everything CI checks.
        runs = re.findall(r"^\s+run: (.+)$", self.job("tests"), re.M)
        assert [r for r in runs if not r.startswith("python -m pip ")] == [
            "PYTHONPATH=src python -m pytest -x -q --durations=15",
            "python -m pytest bench/tests -q",
        ]

    def test_workflow_is_small_and_has_no_inline_programs(self):
        assert "<<" not in self.WORKFLOW
        assert "python -c" not in self.WORKFLOW
        assert len(self.WORKFLOW.splitlines()) <= 150

    def test_lint_targets_exist(self):
        match = re.search(r"ruff check ((?:[\w./-]+ )+)--", self.WORKFLOW)
        assert match, "no ruff step"
        for target in match.group(1).split():
            assert (REPO_ROOT / target).exists(), target

    def test_scripts_run_by_ci_exist(self):
        scripts = set(re.findall(r"python3? (?:base/)?([\w/]+\.py)",
                                 self.WORKFLOW))
        assert "bench/run.py" in scripts and "bench/compare.py" in scripts
        for script in scripts:
            assert (REPO_ROOT / script).is_file(), script

    def test_perf_gate_options_parse(self):
        run = load_by_path("bench_run", REPO_ROOT / "bench" / "run.py")
        commands = re.findall(r"python3 (?:base/)?bench/run\.py (.+)",
                              self.WORKFLOW)
        assert len(commands) == 2, "base and head are benchmarked alike"
        for command in commands:
            args = run.parse_args(command.split())
            assert (args.rounds, args.trace) == (5, 0)
            assert args.workload is None  # every workload is compared


#: Names of the retired ratio-microbenchmark stack, the ungated
#: benchmark suite, the wall-clock result generators and the
#: hand-rolled comparison and fault-sweep loops (now campaign cells),
#: the crash-only plan type, its drawers and its keyword and parser
#: (now ``FaultPlan``, ``exponential_fault_plan``, ``fault_plan`` and
#: ``--fault``), and the recovery knobs and helpers nothing set (now
#: the constants in ``runtime/recovery.py``, ``stats.unrecoverable``
#: and the round base's restore), the run capabilities the engine split
#: deleted (a simulated-time cap on ``run`` and the backend-event
#: opt-in), the generic cell runner ``run_campaign`` replaced, and the
#: recovery-line boolean and hand-written chaos protocol list (now each
#: protocol's ``recovery_lines`` and ``protocols.RECOVERING_PROTOCOLS``,
#: which also replaced the comparison's own list), spelled in pieces so
#: this file does not match its own search.
RETIRED_NAMES = [
    "Workload" + "Spec",
    "ProtocolRun" + "Summary",
    "run_protocol" + "_comparison",
    "_protocol" + "_factories",
    "ensure" + "_transformed",
    "fault_tolerance" + "_sweep",
    "network_fault" + "_sweep",
    "bench.fault" + "_tolerance",
    "bench.network" + "_faults",
    "perf" + "_smoke",
    "engine" + "_hotpath",
    "checkpoint_payload" + "_report",
    "transform" + "_hotpath",
    "repro.bench" + ".record",
    "bench" + "marks/",
    "pytest" + "-benchmark",
    "--benchmark" + "-only",
    "obs" + "_overhead",
    "campaign" + "_scaling",
    "Failure" + "Plan",
    "exponential" + "_failures",
    "exponential" + "_network_plan",
    "failure" + "_plan",
    "_parse_recovery" + "_fault",
    "Supervisor" + "Config",
    "run" + "_verdict",
    "restore_tagged" + "_round",
    "max" + "_time",
    "wants_backend" + "_events",
    "run" + "_cells",
    "Journal" + "Codec",
    "diagnostics" + "_dict",
    "induces_recovery" + "_lines",
    "CHAOS" + "_PROTOCOLS",
    "COMPARED" + "_PROTOCOLS",
    "Transport" + "Config",
    "extra" + "_copies",
    "transport" + "_config",
]

#: Top-level files that describe the current tree. The change log and
#: the plan documents record history, so they may name what was retired.
CURRENT_DOCS = [
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
    "PAPER.md", "PAPERS.md", "SNIPPETS.md",
]


def _searched_files():
    for name in CURRENT_DOCS:
        path = REPO_ROOT / name
        if path.exists():
            yield path
    for top in ("src", "tools", "tests", ".github", "examples", "docs"):
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix in {".py", ".yml", ".md", ".toml"}:
                yield path


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_retired_perf_stack_is_not_referenced(name):
    hits = [
        str(path.relative_to(REPO_ROOT)) for path in _searched_files()
        if name in path.read_text(errors="replace")
    ]
    assert hits == []


#: The committed ``results/*.txt`` files, one per generator.
RESULT_FILES = [
    "checkpointing_payoff.txt",
    "fault_tolerance.txt",
    "figure7_markov.txt",
    "figure8.txt",
    "figure9.txt",
    "network_faults.txt",
    "optimal_intervals.txt",
    "protocol_comparison.txt",
]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """Every result file, regenerated once into a scratch directory."""
    out = tmp_path_factory.mktemp("results")
    assert load_tool().main([str(out)]) == 0
    return out


class TestGcProbe:
    TOOL = REPO_ROOT / "tools" / "gc_probe.py"

    def test_probe_counts_passes_by_generation(self):
        probe = load_by_path("gc_probe", self.TOOL).CollectorProbe()
        with probe:
            gc.collect(0)
            gc.collect(2)
        assert probe not in gc.callbacks
        assert probe.passes == [1, 0, 1]
        assert probe.seconds > 0

    def test_probes_one_workload(self):
        completed = subprocess.run(
            [sys.executable, str(self.TOOL), "--workload", "transform_sweep",
             "--rounds", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        header, row = completed.stdout.splitlines()[1:]
        assert header.split()[:2] == ["workload", "passes"]
        assert row.split()[0] == "transform_sweep"

    def test_unknown_workload_rejected(self):
        completed = subprocess.run(
            [sys.executable, str(self.TOOL), "--workload", "nope"],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 2
        assert "unknown workload" in completed.stderr


class TestAbPairs:
    TOOL = REPO_ROOT / "tools" / "ab_pairs.py"

    @staticmethod
    def contract(cells_per_s, wall_ms, correct=True, stored=700.5):
        return "progress line\n" + json.dumps({
            "correct": correct, "attempted": 4, "failed": 0,
            "metrics": {
                "cells_per_s": {"value": cells_per_s, "unit": "cells/s"},
                "cell_wall_p50_ms": {"value": wall_ms, "unit": "ms"},
                "cell_wall_p90_ms": {"value": None, "unit": "ms"},
                "stored_bytes_per_checkpoint": {"value": stored, "unit": "B"},
                "sim_overhead_ratio": {"value": 0.05, "unit": "ratio"},
            },
        })

    def test_alternates_pairs_and_reports_medians_and_wins(
        self, tmp_path, capsys
    ):
        tool = load_by_path("ab_pairs", self.TOOL)
        base, change = str(REPO_ROOT), str(tmp_path)
        canned = {
            base: [self.contract(10, 5), self.contract(12, 4),
                   self.contract(11, 6)],
            change: [self.contract(13, 4), self.contract(11, 5),
                     self.contract(14, 3)],
        }
        calls = []

        def run(checkout, workload, rounds):
            calls.append((checkout, workload, rounds))
            return canned[checkout].pop(0)

        assert tool.main(
            [base, change, "--workload", "steady_full", "--pairs", "3",
             "--rounds", "2"], run=run,
        ) == 0
        assert [checkout for checkout, _, _ in calls] == [
            base, change, change, base, base, change,
        ]
        assert {(workload, rounds) for _, workload, rounds in calls} == {
            ("steady_full", 2)
        }
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()[2:]
        }
        # Pairs (10, 13), (12, 11), (11, 14): medians 11 and 13.
        # A's quartiles (exclusive method): 10 and 12.
        assert rows["cells_per_s"] == ["11", "13", "1.182", "2", "2/3"]
        assert rows["cell_wall_p50_ms"] == ["5", "4", "0.800", "2", "2/3"]
        assert rows["cell_wall_p90_ms"] == ["-", "-"]
        assert set(rows) == {
            metric["name"] for metric in json.loads(
                (REPO_ROOT / "BENCHMARK.json").read_text()
            )["end_to_end"]
        }

    def test_sides_that_differ_in_a_deterministic_metric_fail(
        self, tmp_path, capsys
    ):
        tool = load_by_path("ab_pairs", self.TOOL)
        base, change = str(REPO_ROOT), str(tmp_path)
        stored = {base: [700.5, 700.5], change: [700.5, 701.0]}

        def run(checkout, workload, rounds):
            return self.contract(10, 5, stored=stored[checkout].pop(0))

        assert tool.main(
            [base, change, "--workload", "w", "--pairs", "2"], run=run
        ) == 1
        out, err = capsys.readouterr()
        # The table still prints; the verdict names the pair and metric.
        assert "cells_per_s" in out
        assert err == (
            "error: w: pair 2: stored_bytes_per_checkpoint differ: the two "
            "sides run different programs\n"
        )

    def test_a_workload_list_shares_one_alternating_schedule(
        self, tmp_path, capsys
    ):
        tool = load_by_path("ab_pairs", self.TOOL)
        base, change = str(REPO_ROOT), str(tmp_path)
        speed = {base: 10, change: 20}
        stored = {"x": 700.5, "y": 300.25}
        calls = []

        def run(checkout, workload, rounds):
            calls.append((checkout, workload))
            # The change is faster on x only, and y's second change
            # run stores other bytes.
            fast = workload == "x" or checkout == base
            bytes_ = stored[workload] + (
                checkout == change and workload == "y"
                and calls.count((change, "y")) == 2
            )
            return self.contract(
                speed[checkout] if fast else 5, 5, stored=bytes_
            )

        assert tool.main(
            [base, change, "--workload", "x,y", "--pairs", "2"], run=run,
        ) == 1
        # Each pair runs every workload before the next pair starts,
        # and each workload's two sides alternate which goes first.
        assert calls == [
            (base, "x"), (change, "x"), (base, "y"), (change, "y"),
            (change, "x"), (base, "x"), (change, "y"), (base, "y"),
        ]
        out, err = capsys.readouterr()
        tables = {}
        for line in out.splitlines():
            if line.endswith("rounds a run"):
                table = tables[line.split(":")[0]] = {}
            elif not line.startswith("metric"):
                table[line.split()[0]] = line.split()[1:]
        assert list(tables) == ["x", "y"]
        assert tables["x"]["cells_per_s"] == ["10", "20", "2.000", "0", "2/2"]
        assert tables["y"]["cells_per_s"] == ["10", "5", "0.500", "0", "0/2"]
        # Only y's second pair ran two programs; x's table stands.
        assert err == (
            "error: y: pair 2: stored_bytes_per_checkpoint differ: the two "
            "sides run different programs\n"
        )

    def test_incorrect_run_fails(self, tmp_path, capsys):
        tool = load_by_path("ab_pairs", self.TOOL)
        assert tool.main(
            [str(REPO_ROOT), str(tmp_path), "--workload", "w"],
            run=lambda *_: self.contract(1, 1, correct=False),
        ) == 1
        assert "not correct" in capsys.readouterr().err


class TestRegenerateResults:
    def test_writes_all_artifacts(self, regenerated):
        committed = (REPO_ROOT / "results").glob("*.txt")
        assert sorted(p.name for p in committed) == RESULT_FILES
        assert sorted(p.name for p in regenerated.iterdir()) == RESULT_FILES

    @pytest.mark.parametrize("name", RESULT_FILES)
    def test_committed_results_are_reproduced(self, regenerated, name):
        committed = (REPO_ROOT / "results" / name).read_bytes()
        assert (regenerated / name).read_bytes() == committed

    def test_only_writes_the_named_generator(self, tmp_path, capsys):
        tool = load_tool()
        assert tool.main([str(tmp_path), "--only", "figure8"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["figure8.txt"]
        assert "done: 1 result(s)" in capsys.readouterr().out

    def test_unknown_generator_rejected(self, tmp_path, capsys):
        tool = load_tool()
        assert tool.main([str(tmp_path), "--only", "nope"]) == 2
        assert "unknown generator" in capsys.readouterr().err
