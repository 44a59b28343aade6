"""Uncoordinated and communication-induced protocol tests (V5)."""

from dataclasses import replace

import pytest

from repro.lang.programs import jacobi_plain, pingpong, program_source
from repro.bench.workloads import strip_checkpoints
from repro.campaign import ScenarioSpec
from repro.errors import SimulationError
from repro.protocols import InducedProtocol, UncoordinatedProtocol
from repro.runtime import (
    CrashEvent,
    FaultPlan,
    FaultKind,
    NetworkFaultEvent,
    NetworkFaultKind,
    Simulation,
    StorageFaultEvent,
)


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
            fault_plan=FaultPlan.single(23.0, 1),
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
            fault_plan=FaultPlan.single(21.0, 1),
        ).run()
        assert result.stats.completed
        assert protocol.domino_steps[0] >= 1

    def test_rollback_depth_recorded_per_process(self):
        protocol = UncoordinatedProtocol(period=6)
        Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol,
            fault_plan=FaultPlan.single(20.0, 2),
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
            fault_plan=FaultPlan.single(22.0, 3),
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_recovery_cut_respects_target_index(self):
        protocol = InducedProtocol(period=7)
        Simulation(
            jacobi_plain(), 4, params={"steps": 20}, protocol=protocol,
            fault_plan=FaultPlan.single(22.0, 0),
        ).run()
        # after recovery, every tracked index is <= the common target
        indexes = protocol._index.values()
        assert max(indexes) - min(indexes) <= max(1, len(indexes))

    def test_invalid_period(self):
        with pytest.raises(SimulationError, match="period must be positive"):
            InducedProtocol(period=0)


#: The network faults of ``chaos_recovery``'s ``stencil_1d/n12/cic``
#: cell as its generator draws it at seed 109 with write faults on:
#: (time, kind, src, dst).
_CELL_NETWORK = (
    (0.95283, "corrupt", 10, 3), (7.5217, "drop", 3, 6),
    (12.641379, "drop", 9, 3), (14.117255, "partition", 6, 5),
    (14.461089, "drop", 1, 8), (16.936629, "heal", 6, 5),
    (19.828667, "duplicate", 8, 11), (24.151475, "duplicate", 5, 2),
    (28.394166, "drop", 10, 2), (29.870732, "drop", 2, 7),
    (31.948595, "duplicate", 0, 6),
)


def _lost_write_plan(kind, network=()):
    """Rank 6 loses its first checkpoint write after t=6.2; rank 4
    crashes at t=14.1, after rank 6 took later indices."""
    return FaultPlan(
        crashes=[CrashEvent(time=14.088311, rank=4)],
        max_failures=1,
        storage_faults=[
            StorageFaultEvent(
                time=3.973076, rank=0, kind=FaultKind.BIT_ROT, replica=0,
            ),
            StorageFaultEvent(time=6.201878, rank=6, kind=kind),
        ],
        network_faults=[
            NetworkFaultEvent(
                time=time, kind=NetworkFaultKind(name), src=src, dst=dst,
            )
            for time, name, src, dst in network
        ],
    )


class TestInducedLostWrite:
    """A ``cic`` rank whose checkpoint write is lost keeps its old BCS
    index: adopting the new one would let a later rollback pair the
    rank's older checkpoint with its peers' newer ones."""

    @pytest.mark.parametrize("plan", [
        _lost_write_plan(FaultKind.TORN_WRITE, _CELL_NETWORK),
        _lost_write_plan(FaultKind.TORN_WRITE),
        _lost_write_plan(FaultKind.WRITE_FAIL),
    ], ids=["drawn-cell", "torn-write", "write-fail"])
    def test_final_state_matches_the_fault_free_run(self, plan):
        cell = ScenarioSpec(
            label="stencil_1d/n12/cic", program=program_source("stencil_1d"),
            n_processes=12, params={"steps": 8}, protocol="cic", period=6.0,
            seed=3, storage_replicas=3, checkpoint_mode="pruned+delta",
            fault_plan=plan,
        )
        twin = replace(cell, fault_plan=None)
        result = cell.build().run()
        assert result.stats.completed
        assert result.stats.rollbacks == 1
        assert result.final_env == twin.build().run().final_env
