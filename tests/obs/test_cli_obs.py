"""CLI tests of the observability surface.

Covers ``simulate --trace-out/--metrics-out/--stats-json``, the
``repro trace`` subcommand in all four formats plus query mode,
``repro metrics diff``, ``repro chaos`` with automatic artifact
dumping, and the campaign telemetry flags
(``--metrics-out``/``--progress``/``--spans-out``).
"""

import json

from repro.cli import main
from repro.obs import read_event_log

from ..chaos.broken_transport import broken_transport


def _capture(tmp_path, extra=()):
    log = tmp_path / "events.jsonl"
    code = main([
        "simulate", "@ring_pipeline", "-n", "3", "--steps", "5",
        "--crash", "10:1", "--trace-out", str(log), *extra,
    ])
    return code, log


class TestSimulateFlags:
    def test_trace_out_writes_jsonl(self, tmp_path):
        code, log = _capture(tmp_path)
        assert code == 0
        events = read_event_log(log)
        assert events
        categories = {e.category for e in events}
        assert {"engine", "transport", "storage"} <= categories

    def test_trace_out_is_deterministic(self, tmp_path):
        # Byte-identity is a *replay* property: two fresh processes
        # running the same (program, seed, plan) must agree exactly.
        import subprocess
        import sys

        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            log = tmp_path / name
            subprocess.run(
                [
                    sys.executable, "-m", "repro", "simulate",
                    "@ring_pipeline", "-n", "3", "--steps", "5",
                    "--crash", "10:1", "--trace-out", str(log),
                ],
                check=True, capture_output=True,
            )
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert logs[0]  # non-empty

    def test_metrics_out(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        code, _ = _capture(tmp_path, ("--metrics-out", str(metrics)))
        assert code == 0
        data = json.loads(metrics.read_text())
        assert data["events_total"]["type"] == "counter"
        assert "checkpoint_latency" in data
        assert "recovery_line_lag" in data

    def test_stats_json_file(self, tmp_path):
        stats = tmp_path / "stats.json"
        code = main([
            "simulate", "@ring_pipeline", "-n", "3", "--steps", "5",
            "--stats-json", str(stats),
        ])
        assert code == 0
        data = json.loads(stats.read_text())
        assert data["completed"] is True
        assert "frames_sent" in data
        assert "max_fallback_depth" in data

    def test_stats_json_stdout(self, capsys):
        code = main([
            "simulate", "@ring_pipeline", "-n", "3", "--steps", "5",
            "--stats-json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        assert json.loads(payload)["completed"] is True


class TestTraceSubcommand:
    def test_summary(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(log)]) == 0
        out = capsys.readouterr().out
        assert "vector clock: every ranked event stamped" in out
        assert "engine.checkpoint" in out

    def test_chrome(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        out_file = tmp_path / "chrome.json"
        assert main([
            "trace", str(log), "--format", "chrome", "-o", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e.get("ph") == "i" for e in doc["traceEvents"])

    def test_jsonl_round_trip(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(log), "--format", "jsonl"]) == 0
        assert capsys.readouterr().out == log.read_text()

    def test_spacetime(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(log), "--format", "spacetime"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("P0 |")
        assert "legend:" in out

    def test_spacetime_refuses_every_filter(self, tmp_path, capsys):
        # The recovery-line markers are cuts of the whole run, so a
        # filtered diagram would be silently wrong.
        _, log = _capture(tmp_path)
        for extra in (
            ["--rank", "0"], ["--category", "engine"], ["--kind", "send"],
            ["--since", "0"], ["--until", "2.0"],
            ["--span", "recovery.attempt"],
        ):
            capsys.readouterr()
            code = main(["trace", str(log), "--format", "spacetime", *extra])
            assert code == 2, extra
            captured = capsys.readouterr()
            assert extra[0] in captured.err
            assert captured.out == ""
        assert main([
            "trace", str(log), "--format", "spacetime",
            "--rank", "0", "--until", "2.0",
        ]) == 2
        assert "--rank, --until" in capsys.readouterr().err

    def test_missing_log_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestTraceQuery:
    def test_query_lists_matching_events(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        capsys.readouterr()
        assert main([
            "trace", "query", str(log), "--rank", "1",
            "--category", "engine",
        ]) == 0
        out = capsys.readouterr().out
        assert out
        for line in out.splitlines():
            assert " r1 " in line
            assert "engine." in line

    def test_query_time_window(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        capsys.readouterr()
        assert main([
            "trace", "query", str(log), "--since", "100", "--until", "200",
        ]) == 0
        assert capsys.readouterr().out == "no events matched\n"

    def test_query_span_filter(self, tmp_path, capsys):
        # The crash at t=10 produces a recovery.attempt span; events
        # inside its sim-time interval (plus the span event) match.
        _, log = _capture(tmp_path)
        capsys.readouterr()
        assert main([
            "trace", "query", str(log), "--span", "recovery.attempt",
        ]) == 0
        out = capsys.readouterr().out
        assert "span.recovery.attempt" in out

    def test_query_without_log_is_a_clean_error(self, capsys):
        assert main(["trace", "query"]) == 2
        assert "error" in capsys.readouterr().err

    def test_filters_compose_with_formats(self, tmp_path, capsys):
        _, log = _capture(tmp_path)
        out_file = tmp_path / "span.chrome.json"
        assert main([
            "trace", str(log), "--category", "span",
            "--format", "chrome", "-o", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text())
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert complete
        assert all(e["name"] == "recovery.attempt" for e in complete)


class TestMetricsDiff:
    def _write(self, tmp_path, name, value):
        path = tmp_path / name
        path.write_text(json.dumps({
            "speedup": {"type": "gauge", "value": value},
        }))
        return str(path)

    def test_identical_files_pass(self, tmp_path, capsys):
        before = self._write(tmp_path, "a.json", 4.0)
        assert main(["metrics", "diff", before, before]) == 0
        assert "OK: 0 of" in capsys.readouterr().out

    def test_threshold_trips_and_names_worst(self, tmp_path, capsys):
        before = self._write(tmp_path, "a.json", 4.0)
        after = self._write(tmp_path, "b.json", 1.0)
        assert main([
            "metrics", "diff", before, after,
            "--threshold", "speedup:min=0.5",
        ]) == 1
        out = capsys.readouterr().out
        assert "worst regression: speedup (4 -> 1, ratio 0.250)" in out

    def test_default_bounds_apply_everywhere(self, tmp_path):
        before = self._write(tmp_path, "a.json", 2.0)
        after = self._write(tmp_path, "b.json", 10.0)
        assert main([
            "metrics", "diff", before, after, "--default-max", "2.0",
        ]) == 1

    def test_bad_threshold_rule_is_a_clean_error(self, tmp_path, capsys):
        before = self._write(tmp_path, "a.json", 1.0)
        assert main([
            "metrics", "diff", before, before, "--threshold", "nonsense",
        ]) == 2
        assert "error" in capsys.readouterr().err


class TestCampaignTelemetry:
    def test_rollup_progress_and_spans(self, tmp_path, capsys):
        metrics = tmp_path / "campaign_metrics.json"
        spans = tmp_path / "spans.json"
        assert main([
            "campaign", "@quick", "--jobs", "1",
            "--metrics-out", str(metrics), "--progress",
            "--spans-out", str(spans),
        ]) == 0
        captured = capsys.readouterr()
        # Progress went to stderr, line-oriented.
        assert "campaign:" in captured.err
        assert "campaign done:" in captured.err
        rollup = json.loads(metrics.read_text())
        assert rollup["rollup_schema_version"] == 1
        assert rollup["aggregate"]["stats.completed"]["value"] > 0
        assert rollup["diagnostics"]["jobs"] == 1
        doc = json.loads(spans.read_text())
        names = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert {"cell.attempt", "cell", "campaign.merge"} <= names


class TestChaosSubcommand:
    def test_healthy_sweep_passes(self, capsys):
        assert main([
            "chaos", "--seeds", "2", "--protocol", "appl-driven",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s), 0 failure(s)" in out

    def test_metrics_out_is_the_campaign_rollup(self, tmp_path, capsys):
        metrics = tmp_path / "chaos-metrics.json"
        assert main([
            "chaos", "--seeds", "3", "--protocol", "appl-driven",
            "--jobs", "2", "--metrics-out", str(metrics),
        ]) == 0
        rollup = json.loads(metrics.read_text())
        cells = [f"seed{seed}/appl-driven" for seed in range(3)]
        # One wall time and one worker pid per cell.
        diagnostics = rollup["diagnostics"]
        assert diagnostics["jobs"] == 2
        assert sorted(diagnostics["timings"]) == cells
        assert all(t > 0 for t in diagnostics["timings"].values())
        assert sorted(diagnostics["workers"]) == cells
        assert all(
            isinstance(pid, int) and pid > 0
            for pid in diagnostics["workers"].values()
        )
        assert list(rollup["per_cell"]) == cells
        assert rollup["per_cell"][cells[0]]["tags"]["protocol"] == (
            "appl-driven"
        )
        assert "cells_errored" not in rollup["aggregate"]
        assert rollup["aggregate"]["stats.completed"]["value"] == 3

    def test_broken_transport_fails_and_dumps(self, tmp_path, capsys):
        # Duplicates reach the application: the fault the harness must
        # catch. The sweep runs in this process (--jobs 1).
        art = tmp_path / "artifacts"
        with broken_transport():
            code = main([
                "chaos", "--seeds", "1", "--protocol", "appl-driven",
                "--jobs", "1", "--artifacts", str(art),
            ])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 failure(s)" in out
        dumped = sorted(p.name for p in art.iterdir())
        assert any(name.endswith(".flight.jsonl") for name in dumped)
        assert any(name.endswith(".schedule.json") for name in dumped)
        # The dump is convertible by the trace subcommand.
        flight = next(p for p in art.iterdir()
                      if p.name.endswith(".flight.jsonl"))
        chrome_out = tmp_path / "flight.chrome.json"
        assert main([
            "trace", str(flight), "--format", "chrome",
            "-o", str(chrome_out),
        ]) == 0
        assert json.loads(chrome_out.read_text())["traceEvents"]
