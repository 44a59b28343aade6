"""CLI tests for the compare and optimal subcommands."""

from repro.cli import main


class TestCompare:
    def test_table_with_all_protocols(self, capsys):
        assert main(["compare", "jacobi", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        for name in ("appl-driven", "SaS", "C-L", "uncoordinated",
                     "CIC-BCS", "msg-logging"):
            assert name in out

    def test_with_crash(self, capsys):
        assert main(
            ["compare", "jacobi", "--steps", "10", "--crash", "8.0:1"]
        ) == 0
        out = capsys.readouterr().out
        # every protocol shows one rollback
        rows = [l for l in out.splitlines() if "jacobi" in l]
        assert all(" 1 " in row for row in rows)

    def test_unknown_workload(self, capsys):
        assert main(["compare", "nonexistent"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestOptimal:
    def test_default_sizes(self, capsys):
        assert main(["optimal"]) == 0
        out = capsys.readouterr().out
        assert "512" in out
        assert "appl-driven" in out

    def test_custom_sizes(self, capsys):
        assert main(["optimal", "-n", "32"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(lines) == 1


class TestLint:
    def test_clean_program(self, capsys):
        assert main(["lint", "@jacobi"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_errors_exit_nonzero(self, capsys, tmp_path):
        path = tmp_path / "bad.mp"
        path.write_text("program bad():\n    y = ghost\n    send(myrank, y)\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "'ghost'" in out
        assert "sender itself" in out

    def test_warning_only_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "warn.mp"
        path.write_text(
            "program warn():\n"
            "    if myrank == 0:\n        checkpoint\n    else:\n        pass\n"
        )
        assert main(["lint", str(path)]) == 0
        assert "warning" in capsys.readouterr().out

    def test_custom_params(self, capsys, tmp_path):
        path = tmp_path / "p.mp"
        path.write_text("program p():\n    x = rounds + 1\n")
        assert main(["lint", str(path), "--param", "rounds"]) == 0
