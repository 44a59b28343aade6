"""CLI tests for the offline analysis of a recorded event log."""

import pytest

from repro.cli import main
from repro.obs import read_event_log


def _record(tmp_path, capsys, program, name, code=0):
    path = tmp_path / name
    assert main(
        ["simulate", program, "-n", "4", "--steps", "3",
         "--trace-out", str(path)]
    ) == code
    capsys.readouterr()
    return path


@pytest.fixture
def safe_log(tmp_path, capsys):
    return _record(tmp_path, capsys, "@jacobi", "safe.jsonl")


@pytest.fixture
def unsafe_log(tmp_path, capsys):
    # The judge rejects the run (a broken cut), so simulate exits 1; the
    # log is written all the same.
    return _record(
        tmp_path, capsys, "@jacobi_odd_even", "unsafe.jsonl", code=1
    )


class TestAnalyzeEventLog:
    def test_analyze_safe_log(self, safe_log, capsys):
        assert main(["analyze", str(safe_log)]) == 0
        out = capsys.readouterr().out
        assert "processes        : 4" in out
        assert "events           : 36" in out
        assert "every straight cut is a recovery line" in out

    def test_analyze_unsafe_log(self, unsafe_log, capsys):
        # The whole report, pinned: which cuts break, the first broken
        # cut's orphan witnesses and the rollback search's result.
        assert main(["analyze", str(unsafe_log)]) == 1
        assert capsys.readouterr().out == (
            "processes        : 4\n"
            "events           : 36\n"
            "messages         : 12\n"
            "completion time  : 7.281\n"
            "straight cuts    : R_1 .. R_3\n"
            "NOT recovery lines: [1, 2, 3]\n"
            "  orphan witness in R_1: <P2.1 send m2 peer=3 t=1.070> -> "
            "<P3.0 recv m2 peer=2 t=1.634>\n"
            "  orphan witness in R_1: <P0.1 send m1 peer=1 t=1.070> -> "
            "<P1.0 recv m1 peer=0 t=1.664>\n"
            "max consistent cut: rollbacks {0: 0, 1: 1, 2: 0, 3: 1}, "
            "domino steps 2\n"
            "no useless checkpoints (no zigzag cycles)\n"
        )

    def test_analyze_has_no_spacetime_flag(self, safe_log, capsys):
        # ``repro trace LOG --format spacetime`` draws the diagram.
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(safe_log), "--spacetime"])
        assert exit_info.value.code == 2
        assert "--spacetime" in capsys.readouterr().err

    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.jsonl"]) == 2


class TestAnalyzeRefusesLogsWithoutARun:
    """A log with no engine events is not a vacuously safe run."""

    def test_transport_only_log(self, safe_log, tmp_path, capsys):
        transport = tmp_path / "transport.jsonl"
        assert main([
            "trace", str(safe_log), "--category", "transport",
            "--format", "jsonl", "-o", str(transport),
        ]) == 0
        assert read_event_log(transport)
        capsys.readouterr()
        assert main(["analyze", str(transport)]) == 2
        captured = capsys.readouterr()
        assert "no engine events" in captured.err
        assert "recovery line" not in captured.out

    def test_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", str(empty)]) == 2
        assert "no engine events" in capsys.readouterr().err

    def test_json_trace_is_not_an_event_log(self, tmp_path, capsys):
        old = tmp_path / "trace.json"
        old.write_text('{"format":1,"n_processes":3,"events":[]}')
        assert main(["analyze", str(old)]) == 2
        assert "error:" in capsys.readouterr().err
