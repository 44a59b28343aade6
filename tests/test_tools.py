"""Tests for the results-regeneration tool, the benchmark's layer table,
and the CI workflow's references into the checkout."""

import importlib
import importlib.util
import re
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
    """CI steps name files and options that exist in this checkout."""

    WORKFLOW = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()

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


#: Names of the retired ratio-microbenchmark stack, spelled in pieces so
#: this file does not match its own search.
RETIRED_NAMES = [
    "perf" + "_smoke",
    "engine" + "_hotpath",
    "checkpoint_payload" + "_report",
    "transform" + "_hotpath",
    "repro.bench" + ".record",
]


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_retired_perf_stack_is_not_referenced(name):
    hits = []
    for top in ("src", "tools", "tests", ".github", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix not in {".py", ".yml", ".md", ".toml"}:
                continue
            if name in path.read_text(errors="replace"):
                hits.append(str(path.relative_to(REPO_ROOT)))
    assert hits == []


class TestRegenerateResults:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        tool = load_tool()
        assert tool.main([str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "figure8.txt",
            "figure9.txt",
            "figure7_markov.txt",
            "protocol_comparison.txt",
            "optimal_intervals.txt",
            "checkpointing_payoff.txt",
            "fault_tolerance.txt",
            "network_faults.txt",
            "obs_overhead.txt",
            "campaign_scaling.txt",
        }

    def test_reports_per_result_timings(self, tmp_path, capsys):
        tool = load_tool()
        assert tool.main([str(tmp_path), "--only", "figure8"]) == 0
        out = capsys.readouterr().out
        assert "figure8:" in out
        assert "done: 1 result(s)" in out

    def test_unknown_generator_rejected(self, tmp_path, capsys):
        tool = load_tool()
        assert tool.main([str(tmp_path), "--only", "nope"]) == 2
        assert "unknown generator" in capsys.readouterr().err

    def test_obs_overhead_claims_hold(self, tmp_path, capsys):
        tool = load_tool()
        tool.main([str(tmp_path), "--only", "obs_overhead"])
        body = (tmp_path / "obs_overhead.txt").read_text()
        assert "disabled path is free: YES" in body
        assert "VIOLATED" not in body

    def test_campaign_scaling_claims_hold(self, tmp_path, capsys):
        tool = load_tool()
        tool.main([str(tmp_path), "--only", "campaign_scaling"])
        body = (tmp_path / "campaign_scaling.txt").read_text()
        assert "verdicts byte-identical across worker counts: YES" in body
        assert "VIOLATED" not in body
        assert "hit rate 0.50" in body

    def test_figures_record_shape_verdicts(self, tmp_path, capsys):
        tool = load_tool()
        tool.main(
            [str(tmp_path), "--only", "figure8", "--only", "figure9"]
        )
        assert "ALL HOLD" in (tmp_path / "figure8.txt").read_text()
        assert "ALL HOLD" in (tmp_path / "figure9.txt").read_text()

    def test_deterministic(self, tmp_path, capsys):
        tool = load_tool()
        first = tmp_path / "a"
        second = tmp_path / "b"
        only = ["--only", "figure8", "--only", "markov_validation",
                "--only", "protocol_comparison"]
        tool.main([str(first), *only])
        tool.main([str(second), *only])
        for name in ("figure8.txt", "figure7_markov.txt",
                     "protocol_comparison.txt"):
            assert (first / name).read_text() == (second / name).read_text()

    def test_parallel_output_matches_serial(self, tmp_path, capsys):
        tool = load_tool()
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        only = ["--only", "figure8", "--only", "protocol_comparison"]
        tool.main([str(serial), "--jobs", "1", *only])
        tool.main([str(parallel), "--jobs", "2", *only])
        for name in ("figure8.txt", "protocol_comparison.txt"):
            assert (serial / name).read_text() \
                == (parallel / name).read_text()
