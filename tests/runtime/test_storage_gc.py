"""Storage garbage collection and overlapping-failure tests."""

import pytest

from repro.lang.programs import jacobi, jacobi_plain
from repro.protocols import ApplicationDrivenProtocol, MessageLoggingProtocol
from repro.runtime import FaultPlan, Simulation
from repro.runtime.failures import CrashEvent

from ..causality.pairwise_cuts import latest_with_number


class TestRetentionGc:
    """``retain_k`` (``RetentionPolicy``) is the one storage GC."""

    def test_prunes_obsolete_checkpoints(self):
        full = Simulation(jacobi(), 4, params={"steps": 8}).run()
        kept = Simulation(
            jacobi(), 4, params={"steps": 8}, retain_k=2
        ).run()
        dropped = kept.stats.gc_collected
        assert dropped > 0
        assert kept.storage.total_count() == (
            full.storage.total_count() - dropped
        )
        # the common floor remains restorable
        common = kept.storage.max_common_number(list(range(4)))
        for rank in range(4):
            assert latest_with_number(kept.storage, rank, common)

    def test_noop_when_only_initial(self):
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 2}, retain_k=2
        ).run()
        assert result.stats.gc_collected == 0

    def test_gc_bounds_storage(self):
        full = Simulation(
            jacobi(), 4, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
        ).run()
        pruned = Simulation(
            jacobi(), 4, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(), retain_k=2,
        ).run()
        assert pruned.storage.total_count() < full.storage.total_count()
        assert pruned.stats.gc_collected > 0
        # GC must not break behaviour
        assert pruned.final_env == full.final_env

    def test_gc_does_not_break_recovery(self):
        baseline = Simulation(jacobi(), 4, params={"steps": 10}).run()
        result = Simulation(
            jacobi(), 4, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=FaultPlan.single(11.0, 2), retain_k=2,
        ).run()
        assert result.stats.completed
        assert result.stats.rollbacks == 1
        assert result.stats.gc_collected > 0
        assert result.final_env == baseline.final_env


class TestOverlappingFailures:
    """Crashes landing during/immediately after a recovery."""

    def test_back_to_back_crashes_appl_driven(self):
        baseline = Simulation(jacobi(), 4, params={"steps": 12}).run()
        plan = FaultPlan(
            crashes=[CrashEvent(10.0, 1), CrashEvent(12.5, 2),
                     CrashEvent(12.6, 3)]
        )
        result = Simulation(
            jacobi(), 4, params={"steps": 12},
            protocol=ApplicationDrivenProtocol(), fault_plan=plan,
        ).run()
        assert result.stats.completed
        assert result.stats.rollbacks == 3
        assert result.final_env == baseline.final_env

    def test_crash_during_replay_msg_logging(self):
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 15}).run()
        plan = FaultPlan(
            crashes=[CrashEvent(14.0, 1), CrashEvent(16.5, 1)]
        )
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 15},
            protocol=MessageLoggingProtocol(period=6), fault_plan=plan,
        ).run()
        assert result.stats.completed
        assert result.stats.rollbacks == 2
        assert result.final_env == baseline.final_env

    def test_same_instant_crashes(self):
        baseline = Simulation(jacobi(), 4, params={"steps": 10}).run()
        plan = FaultPlan(
            crashes=[CrashEvent(9.0, 0), CrashEvent(9.0, 3)]
        )
        result = Simulation(
            jacobi(), 4, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(), fault_plan=plan,
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline.final_env


class TestProtocolDeterminism:
    @pytest.mark.parametrize("make_protocol", [
        lambda: ApplicationDrivenProtocol(),
        lambda: MessageLoggingProtocol(period=6),
    ])
    def test_same_seed_same_outcome(self, make_protocol):
        def run_once():
            return Simulation(
                jacobi(), 4, params={"steps": 10},
                protocol=make_protocol(),
                fault_plan=FaultPlan.single(9.0, 2),
                seed=5,
            ).run()

        a, b = run_once(), run_once()
        assert a.final_env == b.final_env
        assert a.completion_time == b.completion_time
        assert a.stats.checkpoints == b.stats.checkpoints
