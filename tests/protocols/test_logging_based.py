"""Message-logging protocol tests: single-process recovery semantics."""

import pytest

from repro.causality.records import EventKind
from repro.lang.programs import jacobi_plain, master_worker, token_ring
from repro.bench.workloads import strip_checkpoints
from repro.errors import SimulationError
from repro.protocols import MessageLoggingProtocol
from repro.runtime import FaultPlan, Simulation
from repro.runtime.failures import CrashEvent


def run(make=jacobi_plain, n=4, steps=20, plan=None, period=8.0):
    protocol = MessageLoggingProtocol(period=period)
    result = Simulation(
        make(), n, params={"steps": steps},
        protocol=protocol, fault_plan=plan,
    ).run()
    return protocol, result


class TestFailureFree:
    def test_no_control_messages(self):
        _, result = run()
        assert result.stats.control_messages == 0

    def test_periodic_checkpoints_taken(self):
        _, result = run()
        assert result.stats.checkpoints > 0


class TestSingleProcessRecovery:
    def test_only_failed_process_restarts(self):
        protocol, result = run(plan=FaultPlan.single(23.7, 1))
        assert result.stats.completed
        assert protocol.single_restarts == [1]
        restarts = [
            e for e in result.trace.events if e.kind is EventKind.RESTART
        ]
        assert [e.process for e in restarts] == [1]

    def test_survivors_never_roll_back(self):
        _, result = run(plan=FaultPlan.single(23.7, 1))
        # exactly one RESTART event, and no survivor checkpoint is
        # truncated: every rank's history stays monotone
        for rank in (0, 2, 3):
            numbers = [c.number for c in result.storage.history(rank)]
            assert numbers == sorted(numbers)

    def test_replay_reaches_same_final_state(self):
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        _, result = run(plan=FaultPlan.single(23.7, 1))
        assert result.final_env == baseline.final_env

    def test_duplicate_sends_suppressed(self):
        """After recovery the total message count seen by receivers is
        identical to the failure-free run (no duplicate deliveries)."""
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        _, result = run(plan=FaultPlan.single(23.7, 1))
        baseline_recvs = sum(
            e.kind is EventKind.RECV for e in baseline.trace.events
        )
        # the recovering process RE-consumes some logged messages, which
        # appear as extra RECV trace events for rank 1 only
        recv_by_rank = {}
        for event in result.trace.events:
            if event.kind is not EventKind.RECV:
                continue
            recv_by_rank[event.process] = recv_by_rank.get(event.process, 0) + 1
        for rank in (0, 2, 3):
            assert recv_by_rank[rank] == baseline_recvs // 4

    def test_multiple_failures_different_ranks(self):
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        plan = FaultPlan(
            crashes=[CrashEvent(15.0, 2), CrashEvent(30.0, 0), CrashEvent(42.0, 3)]
        )
        protocol, result = run(plan=plan)
        assert result.stats.completed
        assert protocol.single_restarts == [2, 0, 3]
        assert result.final_env == baseline.final_env

    def test_repeated_failures_same_rank(self):
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        plan = FaultPlan(
            crashes=[CrashEvent(14.0, 1), CrashEvent(33.0, 1)]
        )
        protocol, result = run(plan=plan)
        assert result.stats.completed
        assert protocol.single_restarts == [1, 1]
        assert result.final_env == baseline.final_env

    def test_crash_before_first_checkpoint_replays_from_initial(self):
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 10}).run()
        protocol, result = run(
            steps=10, plan=FaultPlan.single(2.0, 3), period=1000.0
        )
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    @pytest.mark.parametrize("make,n", [(master_worker, 4), (token_ring, 5)])
    def test_other_workloads(self, make, n):
        baseline = Simulation(
            strip_checkpoints(make()), n, params={"steps": 10}
        ).run()
        _, result = run(
            make=lambda: strip_checkpoints(make()), n=n, steps=10,
            plan=FaultPlan.single(11.0, n - 1),
        )
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_invalid_period(self):
        with pytest.raises(SimulationError, match="period must be positive"):
            MessageLoggingProtocol(period=0)
