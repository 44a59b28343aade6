"""Application-driven protocol tests — the coordination-free claims."""

from collections import Counter

import pytest

from repro.causality.records import EventKind
from repro.errors import RecoveryError
from repro.lang.programs import jacobi, jacobi_odd_even, ring_pipeline
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import (
    CrashEvent,
    FaultPlan,
    FaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    Simulation,
    StorageFaultEvent,
)
from repro.runtime.trace import ExecutionTrace

from ..shipped_params import default_params


class TestCoordinationFreedom:
    """The paper's headline claims, checked on real runs (V4)."""

    def test_zero_control_messages(self, any_program):
        result = Simulation(
            any_program, 4,
            params=default_params(any_program.name),
            protocol=ApplicationDrivenProtocol(),
        ).run()
        assert result.stats.control_messages == 0

    def test_zero_forced_checkpoints(self, any_program):
        result = Simulation(
            any_program, 4,
            params=default_params(any_program.name),
            protocol=ApplicationDrivenProtocol(),
        ).run()
        assert result.stats.forced_checkpoints == 0

    def test_no_overhead_vs_bare_run(self):
        bare = Simulation(jacobi(), 4, params={"steps": 5}).run()
        with_protocol = Simulation(
            jacobi(), 4, params={"steps": 5},
            protocol=ApplicationDrivenProtocol(),
        ).run()
        assert with_protocol.completion_time == bare.completion_time


class TestRecovery:
    def test_recovers_to_deepest_common_cut(self):
        protocol = ApplicationDrivenProtocol()
        result = Simulation(
            jacobi(), 4, params={"steps": 10}, protocol=protocol,
            fault_plan=FaultPlan.single(12.0, 3),
        ).run()
        assert result.stats.completed
        assert protocol.recovered_to
        assert protocol.recovered_to[0] >= 1

    def test_early_crash_restarts_from_initial(self):
        protocol = ApplicationDrivenProtocol()
        result = Simulation(
            jacobi(), 4, params={"steps": 5}, protocol=protocol,
            fault_plan=FaultPlan.single(0.001, 0),
        ).run()
        assert result.stats.completed
        assert protocol.recovered_to[0] == 0

    def test_validation_rejects_untransformed_program(self):
        protocol = ApplicationDrivenProtocol()
        with pytest.raises(RecoveryError, match="not a recovery line"):
            Simulation(
                jacobi_odd_even(), 4, params={"steps": 10}, protocol=protocol,
                fault_plan=FaultPlan.single(12.0, 1),
            ).run()

    def test_repeated_failures_bounded_rollback(self):
        """No rollback propagation: each recovery loses at most one
        checkpoint interval per process."""
        protocol = ApplicationDrivenProtocol()
        plan = FaultPlan(
            crashes=[],
        )
        from repro.runtime.failures import CrashEvent

        plan.crashes.extend(
            CrashEvent(time, rank)
            for time, rank in ((8.2, 0), (16.9, 2), (25.4, 1))
        )
        result = Simulation(
            ring_pipeline(), 5, params={"steps": 10}, protocol=protocol,
            fault_plan=plan,
        ).run()
        assert result.stats.completed
        assert result.stats.rollbacks == 3
        # recovered indexes never regress more than one failure's worth
        assert protocol.recovered_to == sorted(protocol.recovered_to)


def _recovery_fault(kind):
    return RecoveryFaultEvent(recovery=0, rank=1, kind=kind, attempts=1)


class TestOneSearchPerAttempt:
    """The cut that is validated is the cut that is restored: each
    recovery attempt reads every (rank, number) it needs exactly once."""

    @pytest.mark.parametrize("plan, attempts, depths", [
        pytest.param(
            FaultPlan(crashes=[CrashEvent(19.5, 1)], storage_faults=[
                StorageFaultEvent(
                    time=0, rank=0, kind=FaultKind.TORN_WRITE, number=6,
                ),
                StorageFaultEvent(
                    time=19, rank=2, kind=FaultKind.BIT_ROT, number=7,
                ),
            ]),
            1, [2], id="degraded-two-lines",
        ),
        pytest.param(
            FaultPlan(crashes=[CrashEvent(19.5, 1)], recovery_faults=[
                _recovery_fault(RecoveryFaultKind.CRASH),
            ]),
            2, [0, 1], id="nested-crash-retry",
        ),
        pytest.param(
            FaultPlan(crashes=[CrashEvent(19.5, 1)], recovery_faults=[
                _recovery_fault(RecoveryFaultKind.READ_FAULT),
            ]),
            2, [1], id="read-fault-retry",
        ),
    ])
    def test_each_member_is_read_once(self, plan, attempts, depths):
        sim = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(), fault_plan=plan,
        )
        reads = Counter()
        lookup = sim.storage.intact_with_number

        def counting(rank, number):
            reads[rank, number] += 1
            return lookup(rank, number)

        sim.storage.intact_with_number = counting
        result = sim.run()
        assert result.stats.completed
        assert result.stats.recovery_attempts == attempts
        assert result.stats.fallback_depths == depths
        assert reads and set(reads.values()) == {1}


class TestCutValidationReadsStoredClocks:
    """The cut is validated from its stored members' own clocks (the
    objects their trace events carry), never from the trace: a member
    whose event is missing still gets the right verdict, and a recovery
    costs no scan of the trace per member."""

    @staticmethod
    def finished(program):
        protocol = ApplicationDrivenProtocol()
        sim = Simulation(program, 4, params={"steps": 6}, protocol=protocol)
        result = sim.run()
        return protocol, sim, result.completion_time

    @staticmethod
    def drop_checkpoint_events(sim, rank):
        sim.trace.events[:] = [
            event for event in sim.trace.events
            if not (event.process == rank and event.kind is EventKind.CHECKPOINT)
        ]

    @pytest.mark.parametrize("rank", [0, 2])
    def test_consistent_cut_with_a_member_missing_its_event(self, rank):
        protocol, sim, end = self.finished(jacobi())
        self.drop_checkpoint_events(sim, rank)
        protocol.on_failure(sim, 1, end)
        assert protocol.recovered_to[-1] >= 1

    @pytest.mark.parametrize("rank", [0, 2])
    def test_inconsistent_cut_with_a_member_missing_its_event(self, rank):
        protocol, sim, end = self.finished(jacobi_odd_even())
        self.drop_checkpoint_events(sim, rank)
        with pytest.raises(RecoveryError, match="not a recovery line"):
            protocol.on_failure(sim, 1, end)

    def test_validation_never_reads_the_trace(self, monkeypatch):
        def scan(*args):
            raise AssertionError("cut validation read the trace")

        monkeypatch.setattr(ExecutionTrace, "checkpoint_events", scan)
        protocol = ApplicationDrivenProtocol()
        result = Simulation(
            jacobi(), 4, params={"steps": 10}, protocol=protocol,
            fault_plan=FaultPlan.single(12.0, 3),
        ).run()
        assert result.stats.completed and protocol.recovered_to[0] >= 1
        with pytest.raises(RecoveryError, match="not a recovery line"):
            Simulation(
                jacobi_odd_even(), 4, params={"steps": 10},
                protocol=ApplicationDrivenProtocol(),
                fault_plan=FaultPlan.single(12.0, 1),
            ).run()
