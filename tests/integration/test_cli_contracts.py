"""Command-line contracts: each flag reaches the engine, and the
byte-identity contracts hold at the command line.

Every case drives ``repro.cli.main`` in-process on inputs just big
enough to show that a flag is wired through. The library differentials
carry the scale cases: ``tests/runtime/test_scheduler_differential.py``,
``tests/runtime/test_backend_differential.py`` and
``tests/runtime/test_delta_recovery.py``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import dump_campaign, executor, quick_campaign
from repro.cli import main
from repro.lang.printer import to_source
from repro.lang.programs import load_program
from repro.obs import Observability
from repro.obs.export import (
    events_to_jsonl,
    read_event_log,
    trace_from_events,
)
from repro.protocols import make_protocol
from repro.runtime import chaos
from repro.runtime.engine import Simulation
from repro.runtime.failures import (
    CrashEvent,
    FaultKind,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)
from repro.viz import render_spacetime
from tests.campaign.faulty import Fault, campaign_cell, transient
from tests.cfg.branchy import widened

#: Statistics that count stored wire bytes: the one thing the
#: checkpoint mode is allowed to change.
BYTE_STATS = ("stored_bytes", "gc_reclaimed_bytes")

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: Run knob -> (default value, the other value).
KNOBS = {
    "backend": ("compiled", "reference"),
    "checkpoint_mode": ("full", "pruned+delta"),
}


def flag(knob):
    return "--" + knob.replace("_", "-")


def cli(capsys, *argv):
    """Run ``repro ARGV``; return (exit code, stdout, stderr)."""
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def engine_knobs(monkeypatch):
    """The (backend, checkpoint_mode) of every run, in order."""
    seen = []
    construct = Simulation.__init__

    def recording(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        seen.append({
            "backend": self.backend,
            "checkpoint_mode": self.checkpoint_mode,
        })

    monkeypatch.setattr(Simulation, "__init__", recording)
    return seen


def test_torn_write_and_bit_rot_degrade_recovery_two_lines(capsys):
    code, out, _ = cli(
        capsys, "simulate", "@ring_pipeline", "-n", 3, "--steps", 10,
        "--crash", "19.5:1",
        "--fault", "torn-write:0:0:6", "--fault", "bit-rot:19:2:7",
    )
    assert code == 0
    assert "degraded recovery : 1 (max fallback depth: 2)" in out


def test_event_log_is_canonical_and_a_codec_fixpoint(tmp_path, capsys):
    # The log is written by template encoders, not json.dumps: on a
    # real log it must survive its own reader and writer unchanged,
    # and every line must be the canonical JSON of itself.
    log = tmp_path / "events.jsonl"
    code, _, _ = cli(
        capsys, "simulate", "@ring_pipeline", "-n", 3, "--steps", 8,
        "--crash", "12:1", "--trace-out", log,
        "--metrics-out", tmp_path / "metrics.json",
        "--stats-json", tmp_path / "stats.json",
    )
    assert code == 0
    text = log.read_text()
    assert text.count("\n") > 100
    assert events_to_jsonl(read_event_log(text)) == text
    for line in text.splitlines():
        canonical = json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert line == canonical


class TestRunFlags:
    """Both values of a run knob give the same run, and each value
    reaches every engine the subcommand builds."""

    @pytest.mark.parametrize("knob", KNOBS)
    def test_simulate(self, knob, tmp_path, capsys, engine_knobs):
        outputs = []
        for value in KNOBS[knob]:
            log = tmp_path / f"events-{value}.jsonl"
            stats = tmp_path / f"stats-{value}.json"
            code, _, _ = cli(
                capsys, "simulate", "@stencil_halo", "-n", 4,
                "--steps", 8, "--crash", "9.5:1", flag(knob), value,
                "--trace-out", log, "--stats-json", stats,
            )
            assert code == 0
            assert engine_knobs.pop()[knob] == value
            outputs.append((log.read_bytes(), json.loads(stats.read_text())))
        (log_a, stats_a), (log_b, stats_b) = outputs
        trace_a, trace_b = (
            trace_from_events(read_event_log(data.decode()))
            for data in (log_a, log_b)
        )
        assert trace_a.n_processes == trace_b.n_processes == 4
        assert trace_a.events == trace_b.events
        if knob == "backend":
            # Across checkpoint modes the storage events carry
            # different byte counts, so only the rebuilt traces match.
            assert log_a == log_b
        assert stats_a["rollbacks"] > 0
        if knob == "checkpoint_mode":
            assert stats_b["stored_bytes"] < stats_a["stored_bytes"]
            for stats in (stats_a, stats_b):
                for key in BYTE_STATS:
                    del stats[key]
        assert stats_a == stats_b

    @pytest.mark.parametrize("knob", KNOBS)
    def test_chaos(self, knob, capsys, engine_knobs):
        outputs = []
        for value in KNOBS[knob]:
            code, out, _ = cli(capsys, "chaos", "--seeds", 2, flag(knob), value)
            assert code == 0
            assert {run[knob] for run in engine_knobs} == {value}
            engine_knobs.clear()
            outputs.append(out)
        assert outputs[0] == outputs[1]
        # Two seeds for each of the six protocols that recover.
        assert "12 cell(s), 0 failure(s)" in outputs[0]

    @pytest.mark.parametrize("knob", KNOBS)
    def test_campaign(self, knob, tmp_path, capsys):
        artifacts = []
        for value in KNOBS[knob]:
            path = tmp_path / f"campaign-{value}.json"
            code, _, _ = cli(
                capsys, "campaign", "@quick", "--jobs", 1, flag(knob), value,
                "--results-json", path,
            )
            assert code == 0
            artifacts.append(json.loads(path.read_text())["cells"])
        assert len(artifacts[0]) == len(artifacts[1]) == 6
        for a, b in zip(*artifacts):
            # The knob is part of each spec's content hash.
            assert a.pop("spec_hash") != b.pop("spec_hash"), a["label"]
            if knob == "checkpoint_mode":
                for cell in (a, b):
                    for key in BYTE_STATS:
                        del cell["stats"][key]
            assert a == b, a["label"]


class TestExecutorFaults:
    """Faults come from a faulty cell worker (``tests/campaign/faulty.py``)
    patched in under the CLI."""

    def test_transient_campaign_fault_retries_to_the_clean_artifact(
        self, tmp_path, capsys, monkeypatch
    ):
        clean, faulted = tmp_path / "clean.json", tmp_path / "faulted.json"
        assert cli(
            capsys, "campaign", "@quick", "--jobs", 1, "--results-json", clean
        )[0] == 0
        monkeypatch.setattr(executor, "_campaign_cell", campaign_cell(
            {"pingpong/appl-driven": transient("raise", tmp_path)}
        ))
        code, out, _ = cli(
            capsys, "campaign", "@quick", "--jobs", 1, "--retries", 2,
            "--results-json", faulted,
        )
        assert code == 0
        assert "retries=1 " in out
        assert faulted.read_bytes() == clean.read_bytes()

    def test_crashing_campaign_cell_is_quarantined(
        self, tmp_path, capsys, monkeypatch
    ):
        results, metrics = tmp_path / "poison.json", tmp_path / "metrics.json"
        poison = "ring_pipeline/appl-driven"
        monkeypatch.setattr(
            executor, "_campaign_cell", campaign_cell({poison: Fault("crash")})
        )
        code, out, _ = cli(
            capsys, "campaign", "@quick", "--jobs", 2, "--timeout", 120,
            "--retries", 1, "--results-json", results,
            "--metrics-out", metrics,
        )
        assert code == 1
        assert "resilience: " in out and "quarantined=1 " in out
        errors = {
            cell["label"]: cell["error"]
            for cell in json.loads(results.read_text())["cells"]
        }
        assert errors.pop(poison) == (
            "executor: quarantined after 2 attempt(s); "
            "last failure: worker crashed"
        )
        assert set(errors.values()) == {None}
        executor_stats = json.loads(
            metrics.read_text()
        )["diagnostics"]["executor"]
        assert executor_stats["quarantines"] == 1

    def test_chaos_survives_executor_faults_and_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        sweep = ("chaos", "--seeds", 6, "--protocol", "appl-driven",
                 "--jobs", 1)
        journal = tmp_path / "journal.jsonl"

        def verdicts(out):
            return [
                line for line in out.splitlines()
                if not line.startswith("resilience:")
            ]

        code, clean, _ = cli(capsys, *sweep)
        assert code == 0
        with monkeypatch.context() as patch:
            patch.setattr(executor, "_campaign_cell", campaign_cell({
                f"seed{seed}/appl-driven": transient(
                    "raise", tmp_path, f"seed{seed}"
                )
                for seed in (1, 4)
            }))
            code, faulted, _ = cli(
                capsys, *sweep, "--retries", 3, "--resume", journal
            )
        assert code == 0
        assert "retries=2 " in faulted and "resume-hits=0" in faulted
        assert verdicts(faulted) == verdicts(clean)
        code, resumed, _ = cli(capsys, *sweep, "--resume", journal)
        assert code == 0
        assert "resume-hits=6" in resumed
        assert verdicts(resumed) == verdicts(clean)


class TestCampaignEventLogs:
    """``--results-json PATH`` stores each observed cell's event log
    once, as ``PATH.logs/SHA256.jsonl``; the artifact holds the digest."""

    @pytest.fixture
    def observed(self, tmp_path):
        path = tmp_path / "observed.json"
        path.write_text(dump_campaign([
            replace(spec, observe=True) for spec in quick_campaign(steps=4)
        ]))
        return path

    def run(self, capsys, campaign, results, jobs=1):
        code, _, err = cli(
            capsys, "campaign", campaign, "--jobs", jobs,
            "--results-json", results,
        )
        assert code == 0
        return err

    def test_each_log_file_is_named_by_its_row_digest(
        self, observed, tmp_path, capsys
    ):
        results = tmp_path / "results.json"
        err = self.run(capsys, observed, results)
        logs = Path(f"{results}.logs")
        assert f"# wrote 6 event log(s) to {logs}" in err
        digests = {
            row["event_sha256"]
            for row in json.loads(results.read_text())["cells"]
        }
        files = sorted(logs.iterdir())
        assert {file.name for file in files} == {
            f"{digest}.jsonl" for digest in digests
        }
        for file in files:
            assert hashlib.sha256(file.read_bytes()).hexdigest() == file.stem
            code, out, _ = cli(capsys, "trace", file, "--format", "summary")
            assert code == 0
            assert out.startswith("events      : ")

    def test_jobs_write_identical_logs(self, observed, tmp_path, capsys):
        written = []
        for jobs in (1, 2):
            results = tmp_path / f"jobs{jobs}.json"
            self.run(capsys, observed, results, jobs)
            written.append((results.read_bytes(), {
                file.name: file.read_bytes()
                for file in Path(f"{results}.logs").iterdir()
            }))
        assert written[0] == written[1]

    def test_a_rerun_keeps_only_its_own_logs(self, observed, tmp_path, capsys):
        results = tmp_path / "results.json"
        self.run(capsys, observed, results)
        other = tmp_path / "other.json"
        other.write_text(dump_campaign([
            replace(spec, observe=True) for spec in quick_campaign(steps=5)
        ]))
        self.run(capsys, other, results)
        digests = {
            row["event_sha256"]
            for row in json.loads(results.read_text())["cells"]
        }
        assert {
            file.name for file in Path(f"{results}.logs").iterdir()
        } == {f"{digest}.jsonl" for digest in digests}
        self.run(capsys, "@quick", results)
        assert not list(Path(f"{results}.logs").iterdir())

    def test_stdout_results_have_no_log_directory(
        self, observed, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        err = self.run(capsys, observed, "-")
        assert "# 6 event log(s) not written" in err
        assert not list(tmp_path.glob("*.logs"))

    def test_unobserved_cells_write_no_log_directory(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        self.run(capsys, "@quick", results)
        assert not Path(f"{results}.logs").exists()


@pytest.mark.parametrize("argv, error", [
    (("campaign", "@quick", "--timeout", -1, "--retries", 0),
     "executor timeout must be positive, got -1"),
    (("campaign", "@quick", "--timeout", 0),
     "executor timeout must be positive, got 0"),
    (("chaos", "--seeds", 1, "--retries", -1),
     "executor retries must be >= 0, got -1"),
])
def test_a_bad_executor_budget_is_an_error(argv, error, capsys):
    # Under --jobs 2 a negative timeout used to quarantine every cell.
    code, out, err = cli(capsys, *argv, "--jobs", 2)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_second_transform_is_served_from_the_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    for verdict in ("miss", "hit"):
        code, out, err = cli(
            capsys, "transform", "@jacobi_plain", "--cache", cache
        )
        assert code == 0
        assert "checkpoint" in out
        assert f"transform cache: {verdict}" in err


def test_lint_of_a_wide_balanced_program_is_clean(tmp_path, capsys):
    # 2^17 once-through paths: more than any path enumeration lists.
    source = tmp_path / "wide.mp"
    source.write_text(to_source(widened(load_program("jacobi"), 17)))
    assert cli(capsys, "lint", source) == (0, "clean: no diagnostics\n", "")


@pytest.mark.parametrize("command", ("transform", "lint"))
def test_non_decimal_digit_is_an_error_not_a_traceback(
    command, tmp_path, capsys
):
    source = tmp_path / "squared.mp"
    source.write_text("program t():\n    x = 1\u00b2\n", encoding="utf-8")
    code, out, err = cli(capsys, command, source)
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character '\u00b2' (line 2, column 9)\n"


def test_compare_prints_the_committed_comparison_table(capsys):
    # `repro compare` and tools/regenerate_results.py build the same
    # campaign cells and print them through the same table.
    committed = RESULTS / "protocol_comparison.txt"
    code, out, _ = cli(
        capsys, "compare", "jacobi", "--steps", 12, "--period", 6,
        "--crash", "14.3:2",
    )
    assert code == 0
    assert out.splitlines() == committed.read_text().splitlines()


@pytest.mark.parametrize("argv, message", [
    (("simulate", "@jacobi", "--protocol", "sas", "--period", 0),
     "period must be positive, got 0.0"),
    (("compare", "jacobi", "--period", 0),
     "period must be positive, got 0.0"),
    (("compare", "jacobi", "--period", -2),
     "period must be positive, got -2.0"),
    (("compare", "jacobi", "--crash", "1:9"),
     "crash at t=1.0 targets rank 9 but the simulation has only 4 "
     "processes"),
], ids=lambda v: " ".join(map(str, v)) if isinstance(v, tuple) else None)
def test_bad_cell_is_an_error_not_a_traceback(argv, message, capsys):
    code, out, err = cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", (
    "verify", "lint", "transform", "cfg", "simulate",
))
@pytest.mark.parametrize("bad, message", [
    ("unknown", "unknown program 'nosuch'"),
    ("directory", "Is a directory"),
    ("not-utf-8", "can't decode byte 0xff"),
])
def test_bad_program_argument_is_an_error_not_a_traceback(
    command, bad, message, tmp_path, capsys
):
    if bad == "unknown":
        program = "@nosuch"
    elif bad == "directory":
        program = tmp_path
    else:
        program = tmp_path / "latin1.mp"
        program.write_bytes(b"\xffprogram t():\n    x = 1\n")
    code, out, err = cli(capsys, command, program)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


class TestSimulateIsOneCell:
    """``repro simulate`` runs a one-cell campaign; each of its outputs
    must equal the same run built directly, the oracle kept here."""

    CASES = {
        "appl-driven clean": (
            "@jacobi", 4, 4, "appl-driven", 10.0, (), FaultPlan(), {},
        ),
        "torn-write and bit-rot": (
            "@ring_pipeline", 3, 10, "appl-driven", 10.0,
            ("--crash", "19.5:1", "--fault", "torn-write:0:0:6",
             "--fault", "bit-rot:19:2:7"),
            FaultPlan(
                crashes=[CrashEvent(19.5, 1)],
                storage_faults=[
                    StorageFaultEvent(0.0, 0, FaultKind.TORN_WRITE, 6),
                    StorageFaultEvent(19.0, 2, FaultKind.BIT_ROT, 7),
                ],
            ),
            {},
        ),
        "network faults": (
            "@ring_pipeline", 3, 8, "appl-driven", 10.0,
            ("--crash", "12:1", "--fault", "drop:3:0:1",
             "--fault", "duplicate:4:1:2", "--fault", "delay:5:2:0:1.5"),
            FaultPlan(
                crashes=[CrashEvent(12.0, 1)],
                network_faults=[
                    NetworkFaultEvent(3.0, NetworkFaultKind.DROP, 0, 1),
                    NetworkFaultEvent(4.0, NetworkFaultKind.DUPLICATE, 1, 2),
                    NetworkFaultEvent(5.0, NetworkFaultKind.DELAY, 2, 0, 1.5),
                ],
            ),
            {},
        ),
        "crash-in-recovery under retention": (
            "@ring_pipeline", 3, 8, "appl-driven", 10.0,
            ("--crash", "12:1", "--fault", "crash-in-recovery:0:2",
             "--retain-k", 4),
            FaultPlan(
                crashes=[CrashEvent(12.0, 1)],
                recovery_faults=[
                    RecoveryFaultEvent(0, 2, RecoveryFaultKind.CRASH),
                ],
            ),
            {"retain_k": 4},
        ),
        "three storage replicas outvote one rotted copy": (
            "@ring_pipeline", 3, 8, "appl-driven", 10.0,
            ("--crash", "12:1", "--fault", "bit-rot:12:1::1",
             "--storage-replicas", 3),
            FaultPlan(
                crashes=[CrashEvent(12.0, 1)],
                storage_faults=[StorageFaultEvent(
                    12.0, 1, FaultKind.BIT_ROT, replica=1
                )],
            ),
            {"storage_replicas": 3},
        ),
        "sas": (
            "@jacobi_plain", 4, 6, "sas", 5.0, ("--crash", "7:2"),
            FaultPlan(crashes=[CrashEvent(7.0, 2)]), {},
        ),
        "uncoordinated": (
            "@ring_pipeline", 4, 4, "uncoordinated", 5.0, ("--crash", "9:2"),
            FaultPlan(crashes=[CrashEvent(9.0, 2)]), {},
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_outputs_equal_a_direct_run(self, case, tmp_path, capsys):
        program, n, steps, protocol, period, flags, plan, knobs = (
            self.CASES[case]
        )

        def direct(observer=None):
            return Simulation(
                load_program(program[1:]), n, params={"steps": steps},
                protocol=make_protocol(protocol, period), fault_plan=plan,
                observer=observer, **knobs,
            ).run()

        argv = ("simulate", program, "-n", n, "--steps", steps,
                "--protocol", protocol, "--period", period, *flags)
        plain_stats = tmp_path / "plain.json"
        code, plain, _ = cli(capsys, *argv, "--stats-json", plain_stats)
        assert code == 0
        log, stats = tmp_path / "events.jsonl", tmp_path / "stats.json"
        code, out, _ = cli(
            capsys, *argv, "--spacetime", "--trace-out", log,
            "--stats-json", stats,
        )
        assert code == 0
        block, spacetime = out.split("\n\n", 1)
        assert block + "\n" == plain

        expected = direct().stats.as_dict()
        for path in (plain_stats, stats):
            assert path.read_text() == (
                json.dumps(expected, indent=2, sort_keys=True) + "\n"
            )
        obs = Observability()
        observed = direct(obs.bus)
        assert observed.stats.as_dict() == expected
        assert log.read_text() == obs.jsonl()
        assert spacetime == render_spacetime(observed.trace)


class TestSimulateVerdictLines:
    @pytest.mark.parametrize("protocol", ("appl-driven", "none"))
    def test_unsafe_placement_breaks_a_cut_but_completes(
        self, protocol, capsys
    ):
        code, out, _ = cli(
            capsys, "simulate", "@jacobi_odd_even", "-n", 4, "--steps", 3,
            "--protocol", protocol,
        )
        # Completed, but judged: the run fails like its chaos cell would.
        assert code == 1
        assert "straight cuts are recovery lines: False\n" in out
        assert "judge" not in out

    @pytest.mark.parametrize("protocol", ("sas", "cl", "cic"))
    def test_tagged_protocols_are_judged_on_their_own_lines(
        self, protocol, capsys
    ):
        # Their rounds and indices do not depend on the program's own
        # (here unsafe) checkpoint statements.
        code, out, _ = cli(
            capsys, "simulate", "@jacobi_odd_even", "-n", 4,
            "--protocol", protocol,
        )
        assert code == 0
        assert "tagged cuts are recovery lines: True\n" in out

    @pytest.mark.parametrize("protocol", ("uncoordinated", "msg-logging"))
    def test_protocols_that_make_no_claim_say_so(self, protocol, capsys):
        code, out, _ = cli(
            capsys, "simulate", "@ring_pipeline", "-n", 4, "--steps", 4,
            "--protocol", protocol, "--period", 5, "--crash", "9:2",
        )
        assert code == 0
        assert (
            f"straight cuts are recovery lines: not claimed by {protocol}\n"
            in out
        )

    def test_another_judge_reason_gets_its_own_line(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            chaos, "judge", lambda spec, sim, result: "retention broke"
        )
        code, out, _ = cli(
            capsys, "simulate", "@jacobi", "-n", 4, "--steps", 3
        )
        assert code == 1
        assert out.endswith(
            "straight cuts are recovery lines: True\n"
            "judge             : retention broke\n"
        )

    def test_a_run_that_raises_exits_two_with_its_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "deadlock.mp"
        path.write_text(
            "program dead():\n    y = recv((myrank + 1) % nprocs)\n"
        )
        code, out, err = cli(capsys, "simulate", path, "-n", 2)
        assert code == 2
        assert out == ""
        assert err.startswith("error: DeadlockError: ")
