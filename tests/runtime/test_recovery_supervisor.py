"""The retrying recovery supervisor: faults during rollback and replay.

Covers the tentpole acceptance scenarios: nested crashes during
rollback are retried with backoff and an escalating degraded fallback;
transient restore-read faults and lost control traffic are absorbed;
an exhausted retry budget ends in a clean UNRECOVERABLE verdict (never
an unhandled exception); and a plan without recovery faults reproduces
the unsupervised behavior exactly.
"""

import json

import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.lang.programs import ring_pipeline
from repro.protocols import (
    ApplicationDrivenProtocol,
    MessageLoggingProtocol,
    UncoordinatedProtocol,
)
from repro.runtime import (
    FaultPlan,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    Simulation,
)
from repro.runtime.recovery import MAX_RECOVERY_ATTEMPTS


def run_ring(protocol, fault_plan=None, **kwargs):
    return Simulation(
        ring_pipeline(), 3, params={"steps": 10}, protocol=protocol,
        fault_plan=fault_plan, **kwargs,
    ).run()


def crash_plan(**fault_kwargs):
    """One crash of rank 1 plus one fault on its recovery."""
    faults = []
    if fault_kwargs:
        faults = [RecoveryFaultEvent(recovery=0, rank=1, **fault_kwargs)]
    return FaultPlan(crashes=[(19.5, 1)], recovery_faults=faults)


class TestRecoveryFaultTargets:
    def test_fault_rank_must_exist(self):
        plan = crash_plan(kind=RecoveryFaultKind.CRASH)
        bad = FaultPlan(
            crashes=plan.crashes,
            recovery_faults=[RecoveryFaultEvent(
                recovery=0, rank=7, kind=RecoveryFaultKind.CRASH
            )],
        )
        with pytest.raises(SimulationError, match="rank"):
            Simulation(
                ring_pipeline(), 3, params={"steps": 10},
                protocol=ApplicationDrivenProtocol(), fault_plan=bad,
            )


class TestNestedCrashRetry:
    @pytest.mark.parametrize("make_protocol", [
        lambda: ApplicationDrivenProtocol(),
        lambda: UncoordinatedProtocol(period=6.0),
        lambda: MessageLoggingProtocol(period=6.0),
    ])
    def test_retried_and_completes(self, make_protocol):
        result = run_ring(
            make_protocol(),
            crash_plan(kind=RecoveryFaultKind.CRASH, attempts=2),
        )
        assert result.stats.completed
        assert result.stats.nested_crashes == 2
        assert result.stats.recovery_retries == 2
        assert result.stats.recovery_attempts == 3
        # Backoff is charged to the simulated clock, not swallowed.
        assert result.stats.recovery_backoff_time == pytest.approx(
            0.5 + 1.0
        )

    def test_state_matches_crash_only_run(self):
        # The nested crashes delay recovery but must not change what
        # is recovered: the final state equals the plain-crash run's.
        baseline = run_ring(
            ApplicationDrivenProtocol(), FaultPlan.single(19.5, 1)
        )
        result = run_ring(
            ApplicationDrivenProtocol(),
            crash_plan(kind=RecoveryFaultKind.CRASH, attempts=2),
        )
        assert result.final_env == baseline.final_env

    def test_read_fault_is_retried(self):
        result = run_ring(
            MessageLoggingProtocol(period=6.0),
            crash_plan(kind=RecoveryFaultKind.READ_FAULT),
        )
        assert result.stats.completed
        assert result.stats.recovery_read_faults == 1
        assert result.stats.recovery_retries >= 1

    def test_control_lost_is_retried(self):
        result = run_ring(
            ApplicationDrivenProtocol(),
            crash_plan(kind=RecoveryFaultKind.CONTROL_LOST),
        )
        assert result.stats.completed
        assert result.stats.recovery_control_lost == 1
        assert result.stats.recovery_retries == 1


class TestUnrecoverableVerdict:
    def test_exhausted_budget_is_a_clean_verdict(self):
        # Four attempts, four nested crashes: the supervisor gives up
        # with a verdict instead of leaking an exception out of run().
        result = run_ring(
            ApplicationDrivenProtocol(),
            crash_plan(kind=RecoveryFaultKind.CRASH, attempts=4),
        )
        assert result.stats.unrecoverable
        assert not result.stats.completed

    def test_outcome_flips_at_the_attempt_budget(self):
        # One nested crash fewer than the budget leaves the last
        # attempt to succeed; as many as the budget exhaust it.
        assert MAX_RECOVERY_ATTEMPTS == 4
        survived = run_ring(
            ApplicationDrivenProtocol(),
            crash_plan(
                kind=RecoveryFaultKind.CRASH,
                attempts=MAX_RECOVERY_ATTEMPTS - 1,
            ),
        )
        exhausted = run_ring(
            ApplicationDrivenProtocol(),
            crash_plan(
                kind=RecoveryFaultKind.CRASH, attempts=MAX_RECOVERY_ATTEMPTS
            ),
        )
        assert survived.stats.completed
        assert survived.stats.recovery_attempts == MAX_RECOVERY_ATTEMPTS
        assert exhausted.stats.unrecoverable
        assert exhausted.stats.recovery_attempts == MAX_RECOVERY_ATTEMPTS


class TestDeterminism:
    def test_zero_recovery_faults_matches_unsupervised(self):
        # An empty recovery-fault list must reproduce the pre-supervisor
        # behavior bit for bit: same stats, same final state.
        plain = run_ring(
            ApplicationDrivenProtocol(), FaultPlan.single(19.5, 1)
        )
        supervised = run_ring(
            ApplicationDrivenProtocol(), crash_plan()
        )
        assert supervised.final_env == plain.final_env
        assert supervised.stats.recovery_retries == 0
        assert supervised.stats.recovery_backoff_time == 0.0
        assert supervised.stats.rollbacks == plain.stats.rollbacks

    def test_same_plan_same_outcome(self):
        plan = crash_plan(kind=RecoveryFaultKind.CRASH, attempts=2)
        first = run_ring(ApplicationDrivenProtocol(), plan, seed=5)
        second = run_ring(ApplicationDrivenProtocol(), plan, seed=5)
        assert first.final_env == second.final_env
        assert first.stats == second.stats


class TestCli:
    def test_recovery_fault_flag(self, capsys):
        assert main([
            "simulate", "@ring_pipeline", "-n", "3", "--steps", "10",
            "--protocol", "appl-driven", "--crash", "19.5:1",
            "--fault", "crash-in-recovery:0:1:2",
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "recovery superv." in out
        assert "retries=2" in out

    def test_retain_k_flag(self, capsys):
        assert main([
            "simulate", "@ring_pipeline", "-n", "3", "--steps", "10",
            "--protocol", "uncoordinated", "--retain-k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "retention (k=3)" in out

    def test_bad_recovery_fault_spec(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "simulate", "@ring_pipeline",
                "--fault", "bogus-kind:0:1",
            ])

    def test_stats_json_includes_supervisor_fields(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert main([
            "simulate", "@ring_pipeline", "-n", "3", "--steps", "10",
            "--protocol", "appl-driven", "--crash", "19.5:1",
            "--fault", "crash-in-recovery:0:1",
            "--retain-k", "4", "--stats-json", str(stats_path),
        ]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["recovery_retries"] == 1
        assert stats["nested_crashes"] == 1
        assert stats["stored_checkpoints"] > 0
        assert "gc_collected" in stats
        assert stats["unrecoverable"] is False
