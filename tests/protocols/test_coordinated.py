"""SaS and Chandy-Lamport protocol tests."""

import pytest

from repro.causality.cuts import CheckpointCut, cut_is_consistent
from repro.causality.records import EventKind
from repro.lang.programs import jacobi_plain, token_ring
from repro.errors import SimulationError
from repro.protocols import ChandyLamportProtocol, SyncAndStopProtocol
from repro.runtime import FaultPlan, Simulation


def run(protocol, make=jacobi_plain, n=4, steps=20, plan=None, seed=0):
    return Simulation(
        make(), n, params={"steps": steps}, protocol=protocol,
        fault_plan=plan, seed=seed,
    ).run()


def round_cut_consistent(result, tag_prefix, round_id, n):
    """Check a coordinated round's checkpoints by vector clocks."""
    members = []
    for rank in range(n):
        checkpoint = result.storage.latest_with_tag(rank, f"{tag_prefix}-{round_id}")
        if checkpoint is None:
            return None
        for event in [e for e in result.trace.events if e.process == rank]:
            if (
                event.kind is EventKind.CHECKPOINT
                and event.checkpoint_number == checkpoint.number
            ):
                members.append(event)
                break
    if len(members) != n:
        return None
    return cut_is_consistent(CheckpointCut(members=tuple(members)))


class TestSyncAndStop:
    def test_message_count_is_5_n_minus_1_per_round(self):
        protocol = SyncAndStopProtocol(period=10)
        result = run(protocol)
        rounds = len(protocol.completed_rounds)
        assert rounds >= 1
        assert result.stats.control_messages == rounds * 5 * 3

    def test_every_round_checkpoints_all_processes(self):
        protocol = SyncAndStopProtocol(period=10)
        result = run(protocol)
        for round_id in protocol.completed_rounds:
            for rank in range(4):
                assert result.storage.latest_with_tag(rank, f"sas-{round_id}")

    def test_round_cuts_are_consistent(self):
        protocol = SyncAndStopProtocol(period=10)
        result = run(protocol)
        for round_id in protocol.completed_rounds:
            assert round_cut_consistent(result, "sas", round_id, 4) is True

    def test_pause_slows_completion(self):
        bare = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        coordinated = run(SyncAndStopProtocol(period=5))
        assert coordinated.completion_time > bare.completion_time

    def test_recovery_restores_last_round(self):
        protocol = SyncAndStopProtocol(period=8)
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        result = run(protocol, plan=FaultPlan.single(25.0, 2))
        assert result.stats.completed
        assert result.stats.rollbacks == 1
        assert result.final_env == baseline.final_env

    def test_crash_before_first_round_restarts_initial(self):
        protocol = SyncAndStopProtocol(period=1000)
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 10}).run()
        result = run(protocol, steps=10, plan=FaultPlan.single(3.0, 1))
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_invalid_period(self):
        with pytest.raises(SimulationError, match="period must be positive"):
            SyncAndStopProtocol(period=0)


class TestChandyLamport:
    def test_markers_flood_all_channels(self):
        protocol = ChandyLamportProtocol(period=10)
        result = run(protocol)
        rounds = len(protocol.completed_rounds)
        assert rounds >= 1
        # n(n-1) markers + (n-1) acks per round
        per_round = 4 * 3 + 3
        assert result.stats.control_messages == rounds * per_round

    def test_execution_not_paused(self):
        """C-L's advantage over SaS: no stop-the-world. The pause cost
        surfaces on the critical path when coordination messages are
        slow (the paper's Figure 9 effect), so raise control latency
        on a compute-only workload (no app messages, so marker/channel
        ordering is irrelevant here)."""
        from repro.lang.parser import parse
        from repro.runtime import RuntimeCosts

        def busy():
            return parse(
                "program busy():\n"
                "    i = 0\n"
                "    while i < steps:\n"
                "        compute(3 + myrank * 2)\n"
                "        i = i + 1\n"
            )

        costs = RuntimeCosts(control_latency=1.0)
        cl = Simulation(
            busy(), 4, params={"steps": 40}, costs=costs,
            protocol=ChandyLamportProtocol(period=6),
        ).run()
        sas = Simulation(
            busy(), 4, params={"steps": 40}, costs=costs,
            protocol=SyncAndStopProtocol(period=6),
        ).run()
        assert cl.completion_time < sas.completion_time

    def test_snapshot_cuts_are_consistent(self):
        protocol = ChandyLamportProtocol(period=10)
        result = run(protocol)
        assert protocol.completed_rounds
        verdicts = [
            round_cut_consistent(result, "cl", round_id, 4)
            for round_id in protocol.completed_rounds
        ]
        # rounds started after some process finished have partial
        # coverage (None); every full round must be consistent
        assert True in verdicts
        assert False not in verdicts

    def test_snapshot_cuts_consistent_on_ring(self):
        protocol = ChandyLamportProtocol(period=12)
        result = run(protocol, make=token_ring, n=5, steps=20)
        assert protocol.completed_rounds
        verdicts = [
            round_cut_consistent(result, "cl", round_id, 5)
            for round_id in protocol.completed_rounds
        ]
        assert True in verdicts
        assert False not in verdicts

    def test_recovery_replays_correctly(self):
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        result = run(
            ChandyLamportProtocol(period=8), plan=FaultPlan.single(25.0, 0)
        )
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_invalid_period(self):
        with pytest.raises(SimulationError, match="period must be positive"):
            ChandyLamportProtocol(period=-1)
