"""CLI tests (argument handling, exit codes, output shape)."""

import argparse
import re

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.lang.programs import JACOBI_ODD_EVEN_SOURCE


@pytest.fixture
def odd_even_file(tmp_path):
    path = tmp_path / "odd_even.mp"
    path.write_text(JACOBI_ODD_EVEN_SOURCE)
    return str(path)


class TestPrograms:
    def test_lists_shipped_programs(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out
        assert "master_worker" in out


class TestVerify:
    def test_safe_program_exits_zero(self, capsys):
        assert main(["verify", "@jacobi"]) == 0
        assert "Condition 1 holds: True" in capsys.readouterr().out

    def test_unsafe_program_exits_one(self, capsys):
        assert main(["verify", "@jacobi_odd_even"]) == 1
        out = capsys.readouterr().out
        assert "Condition 1 holds: False" in out
        assert "violation" in out

    def test_loop_optimization_mode(self, capsys):
        assert main(["verify", "@jacobi", "--loop-optimization"]) == 0
        assert "loop-optimised" in capsys.readouterr().out

    def test_file_input(self, odd_even_file):
        assert main(["verify", odd_even_file]) == 1

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/file.mp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_shipped_program(self, capsys):
        assert main(["verify", "@nope"]) == 2
        assert "unknown program 'nope'" in capsys.readouterr().err


class TestTransform:
    def test_prints_safe_source(self, capsys):
        assert main(["transform", "@jacobi_odd_even"]) == 0
        captured = capsys.readouterr()
        assert "program jacobi_odd_even" in captured.out
        assert "phase III" in captured.err
        # the output must re-verify
        from repro.lang.parser import parse
        from repro.phases.verification import verify_program

        assert verify_program(parse(captured.out)).ok

    def test_writes_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "safe.mp"
        assert main(["transform", "@jacobi_odd_even", "-o", str(out_file)]) == 0
        assert out_file.exists()
        assert "checkpoint" in out_file.read_text()

    def test_insertion_for_plain_program(self, capsys):
        assert main(
            ["transform", "@jacobi_plain", "--steps", "10",
             "--checkpoint-overhead", "2.0", "--failure-rate", "0.05"]
        ) == 0
        captured = capsys.readouterr()
        assert "phase I" in captured.err
        assert "checkpoint" in captured.out


class TestCfg:
    def test_dot_output(self, capsys):
        assert main(["cfg", "@jacobi"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph jacobi")

    def test_extended_includes_message_edges(self, capsys):
        assert main(["cfg", "@jacobi", "--extended"]) == 0
        assert "style=dashed" in capsys.readouterr().out


class TestSimulate:
    def test_basic_run(self, capsys):
        assert main(["simulate", "@jacobi", "-n", "4", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "completed         : True" in out
        assert "straight cuts are recovery lines: True" in out

    def test_crash_and_recovery(self, capsys):
        assert main(
            ["simulate", "@jacobi", "-n", "4", "--steps", "6",
             "--crash", "7.0:2"]
        ) == 0
        out = capsys.readouterr().out
        assert "failures/rollbacks: 1/1" in out

    def test_spacetime_flag(self, capsys):
        assert main(
            ["simulate", "@jacobi", "-n", "4", "--steps", "3", "--spacetime"]
        ) == 0
        assert "legend:" in capsys.readouterr().out

    def test_protocol_choice(self, capsys):
        assert main(
            ["simulate", "@jacobi_plain", "-n", "4", "--steps", "6",
             "--protocol", "sas", "--period", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "control messages  : " in out
        ctl = int(out.split("control messages  : ")[1].splitlines()[0])
        assert ctl > 0

    def test_bad_crash_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "@jacobi", "--crash", "oops"])

    def test_deadlocking_program_reports_error(self, capsys, tmp_path):
        path = tmp_path / "deadlock.mp"
        path.write_text(
            "program dead():\n    y = recv((myrank + 1) % nprocs)\n"
        )
        assert main(["simulate", str(path), "-n", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulateNetworkFaults:
    def test_network_faults_via_flags(self, capsys):
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3", "--steps", "8",
             "--fault", "drop:3.0:0:1",
             "--fault", "duplicate:5.0:1:2",
             "--fault", "delay:6.0:2:0:1.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "completed         : True" in out
        assert "network faults    : dropped=1" in out
        assert "retransmits=" in out

    def test_partition_heal_window(self, capsys):
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3", "--steps", "8",
             "--fault", "partition:8.0:0:2", "--fault", "heal:10.0:0:2"]
        ) == 0
        out = capsys.readouterr().out
        assert "transport         : frames=" in out

    def test_network_fault_rank_validated_against_n(self, capsys):
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3",
             "--fault", "drop:3.0:0:5"]
        ) == 2
        err = capsys.readouterr().err
        assert "channel 0->5" in err and "only 3 processes" in err

    def test_crash_rank_validated_against_n(self, capsys):
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3", "--crash", "5.0:7"]
        ) == 2
        err = capsys.readouterr().err
        assert "rank 7" in err and "only 3 processes" in err

    def test_storage_fault_rank_validated_against_n(self, capsys):
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3",
             "--fault", "bit-rot:5.0:6"]
        ) == 2
        assert "rank 6" in capsys.readouterr().err

    def test_bad_network_fault_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "@ring_pipeline", "--fault", "drop:oops:0:1"])

    def test_delay_without_duration_rejected(self, capsys):
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3",
             "--fault", "delay:3.0:0:1"]
        ) == 2
        assert "delay" in capsys.readouterr().err

    def test_fault_plan_json_network_faults(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"crashes": [{"time": 14.0, "rank": 1}],'
            ' "network_faults": [{"time": 3.0, "kind": "drop",'
            ' "src": 0, "dst": 1}]}'
        )
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3", "--steps", "8",
             "--fault-plan", str(plan)]
        ) == 0
        out = capsys.readouterr().out
        assert "network faults    : dropped=1" in out
        assert "failures/rollbacks: 1/1" in out

    def test_fault_plan_rejects_unknown_keys(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"netwrok_faults": []}')
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3",
             "--fault-plan", str(plan)]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown top-level key(s) ['netwrok_faults']" in err
        assert '"network_faults"' in err  # the expected schema is shown

    def test_fault_plan_rejects_unknown_network_kind(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"network_faults": [{"time": 1.0, "kind": "teleport",'
            ' "src": 0, "dst": 1}]}'
        )
        assert main(
            ["simulate", "@ring_pipeline", "-n", "3",
             "--fault-plan", str(plan)]
        ) == 2
        assert "teleport" in capsys.readouterr().err


class TestFigures:
    def test_both_tables(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "Figure 9" in out
        assert "appl-driven" in out

    def test_single_figure(self, capsys):
        assert main(["figures", "--figure", "9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "Figure 8" not in out


class TestModuleDocstring:
    def test_command_table_lists_every_subcommand(self):
        lines = re.DOTALL | re.MULTILINE
        table = re.search(
            r"^=+ =+\n(.*?)^=+ =+$", repro.cli.__doc__, lines
        ).group(1)
        documented = re.findall(r"^([a-z]+) ", table, lines)
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(documented) == sorted(subparsers.choices)
