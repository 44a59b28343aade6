"""Uncoordinated and communication-induced protocol tests (V5)."""

import pytest

from repro.lang.parser import parse
from repro.lang.programs import jacobi_plain, pingpong
from repro.bench.workloads import strip_checkpoints
from repro.errors import SimulationError
from repro.protocols import InducedProtocol, UncoordinatedProtocol
from repro.runtime import FailurePlan, RuntimeCosts, Simulation


class TestUncoordinated:
    def test_no_control_messages(self):
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 20},
            protocol=UncoordinatedProtocol(period=10),
        ).run()
        assert result.stats.control_messages == 0

    def test_staggered_checkpoints(self):
        protocol = UncoordinatedProtocol(period=10, stagger=0.8)
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol
        ).run()
        times = {
            rank: [c.time for c in result.storage.history(rank)[1:]]
            for rank in range(4)
        }
        firsts = [t[0] for t in times.values() if t]
        assert len(set(firsts)) > 1  # not aligned

    def test_recovery_finds_consistent_cut(self):
        protocol = UncoordinatedProtocol(period=7)
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol,
            failure_plan=FailurePlan.single(23.0, 1),
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline.final_env
        assert len(protocol.rollback_depths) == 1

    def test_domino_effect_on_chatty_workload(self):
        """Tight ping-pong + staggered checkpoints: rollback cascades
        beyond the latest checkpoints (the domino effect)."""
        protocol = UncoordinatedProtocol(period=6, stagger=0.9)
        result = Simulation(
            strip_checkpoints(pingpong()), 4, params={"steps": 60},
            protocol=protocol,
            failure_plan=FailurePlan.single(21.0, 1),
        ).run()
        assert result.stats.completed
        assert protocol.domino_steps[0] >= 1

    def test_rollback_depth_recorded_per_process(self):
        protocol = UncoordinatedProtocol(period=6)
        Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol,
            failure_plan=FailurePlan.single(20.0, 2),
        ).run()
        depths = protocol.rollback_depths[0]
        assert set(depths) == {0, 1, 2, 3}
        assert all(d >= 0 for d in depths.values())


class TestInduced:
    def test_no_control_messages(self):
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 20},
            protocol=InducedProtocol(period=10),
        ).run()
        assert result.stats.control_messages == 0

    def test_forced_checkpoints_on_index_lag(self):
        """With strongly staggered basic checkpoints, messages carry
        higher indices into lagging processes and force checkpoints."""
        protocol = InducedProtocol(period=6, stagger=3.0)
        result = Simulation(
            strip_checkpoints(pingpong()), 2, params={"steps": 60},
            protocol=protocol,
        ).run()
        assert result.stats.forced_checkpoints >= 1

    def test_indices_piggybacked(self):
        class Recording(InducedProtocol):
            """Records the index every consumed message carried."""

            def __init__(self, period):
                super().__init__(period=period)
                self.carried = {}

            def on_app_message(self, sim, rank, message):
                self.carried.setdefault(message.channel, []).append(
                    message.piggyback["bcs_index"]
                )
                super().on_app_message(sim, rank, message)

        protocol = Recording(period=5)
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol
        ).run()
        assert result.stats.completed
        assert max(max(indices) for indices in protocol.carried.values()) > 0
        # Failure-free, a sender's index only grows and channels are
        # FIFO: indices never decrease along a channel.
        for indices in protocol.carried.values():
            assert indices == sorted(indices)

    def test_recovery_bounded_by_index(self):
        protocol = InducedProtocol(period=7)
        baseline = Simulation(jacobi_plain(), 4, params={"steps": 20}).run()
        result = Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol,
            failure_plan=FailurePlan.single(22.0, 3),
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_recovery_cut_respects_target_index(self):
        protocol = InducedProtocol(period=7)
        Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol,
            failure_plan=FailurePlan.single(22.0, 0),
        ).run()
        # after recovery, every tracked index is <= the common target
        indexes = protocol._index.values()
        assert max(indexes) - min(indexes) <= max(1, len(indexes))

    def test_invalid_period(self):
        with pytest.raises(SimulationError, match="period must be positive"):
            InducedProtocol(period=0)
