"""End-to-end degraded recovery under storage faults.

The adversarial scenarios here follow ISSUE acceptance: a torn write
plus bit rot on the latest cut must force recovery from the deepest
fully-intact recovery line R_{i-1}, surfaced in the stats, with the
final result identical to a fault-free run; a corrupt checkpoint must
never be restored; and a zero-fault ``FaultPlan`` must reproduce the
seed behavior exactly.
"""

import pytest

from repro.errors import RecoveryError, SimulationError
from repro.lang.programs import ring_pipeline
from repro.protocols import (
    ApplicationDrivenProtocol,
    MessageLoggingProtocol,
    UncoordinatedProtocol,
)
from repro.runtime import (
    FaultPlan,
    FaultKind,
    Simulation,
    StorageFaultEvent,
)

from ..causality.pairwise_cuts import latest_with_number


def assert_same_trace(a, b):
    # TraceEvent is a tuple and VectorClock defines __eq__, so this
    # compares every field of every event.
    assert a.n_processes == b.n_processes
    assert a.events == b.events


def adversarial_plan():
    """Torn write punches a hole at R_6; bit rot lands on R_7 just
    before the crash — both members of the two latest cuts of the
    victim's peers, forcing fallback past R_7 *and* R_6 down to R_5."""
    return FaultPlan(
        crashes=[(19.5, 1)],
        storage_faults=[
            StorageFaultEvent(time=0.0, rank=0, kind=FaultKind.TORN_WRITE,
                              number=6),
            StorageFaultEvent(time=19.0, rank=2, kind=FaultKind.BIT_ROT,
                              number=7),
        ],
    )


def run_ring(fault_plan=None, **kwargs):
    return Simulation(
        ring_pipeline(),
        3,
        params={"steps": 10},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=fault_plan,
        **kwargs,
    ).run()


class TestDegradedRecovery:
    def test_falls_back_to_deepest_intact_cut(self):
        protocol = ApplicationDrivenProtocol()
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 10}, protocol=protocol,
            fault_plan=adversarial_plan(),
        ).run()
        assert result.stats.completed
        # R_7 is corrupt (bit rot), R_6 has a hole (torn write): the
        # deepest fully-intact straight cut is R_5, two lines down.
        assert protocol.recovered_to == [5]
        assert result.stats.recovery_fallbacks == 1
        assert result.stats.fallback_depths == [2]
        assert result.stats.max_fallback_depth == 2

    def test_fault_accounting_in_stats(self):
        result = run_ring(fault_plan=adversarial_plan())
        assert result.stats.torn_writes == 1
        assert result.stats.storage_write_failures == 1  # the torn one
        assert result.stats.bit_rot_injected == 1
        assert result.stats.corrupt_checkpoints == 1

    def test_degraded_result_matches_fault_free_run(self):
        baseline = run_ring()
        degraded = run_ring(fault_plan=adversarial_plan())
        assert degraded.final_env == baseline.final_env

    def test_corrupt_checkpoint_never_restored(self):
        sim = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
        )
        result = sim.run()
        assert result.stats.completed
        victim = sim.storage.history(1)[-1]
        assert sim.storage.corrupt(1, number=victim.number)
        cut = {r: latest_with_number(sim.storage, r, victim.number)
               for r in range(3)}
        with pytest.raises(RecoveryError, match="corrupt checkpoint"):
            sim.restore_cut(cut, result.completion_time)

    def test_restore_single_refuses_corrupt(self):
        sim = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
        )
        result = sim.run()
        sim.storage.corrupt(2)
        with pytest.raises(RecoveryError, match="corrupt checkpoint"):
            sim.restore_single(sim.storage.history(2)[-1], result.completion_time)

    def test_no_intact_cut_at_all_raises(self):
        # Rot out every checkpoint of rank 0, including the initial
        # R_0 snapshot: no straight cut survives.
        sim = Simulation(
            ring_pipeline(), 3, params={"steps": 3},
            protocol=ApplicationDrivenProtocol(),
        )
        sim.run()
        while sim.storage.corrupt(0):
            pass
        protocol = ApplicationDrivenProtocol()
        with pytest.raises(RecoveryError, match="no fully-intact"):
            protocol.deepest_intact_cut(sim)

    def test_write_fail_lowers_common_number_without_fallback(self):
        # Losing the *latest* checkpoint of one rank simply lowers the
        # deepest common number; that is normal recovery, not degraded.
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            storage_faults=[
                StorageFaultEvent(time=19.0, rank=0,
                                  kind=FaultKind.WRITE_FAIL),
            ],
        )
        result = run_ring(fault_plan=plan)
        assert result.stats.completed
        assert result.stats.storage_write_failures >= 1
        assert result.stats.recovery_fallbacks == 0

    def test_transient_fault_retries_and_completes(self):
        plan = FaultPlan(storage_faults=[
            StorageFaultEvent(time=5.0, rank=0, kind=FaultKind.TRANSIENT,
                              attempts=2),
        ])
        baseline = run_ring()
        result = run_ring(fault_plan=plan)
        assert result.stats.completed
        assert result.stats.storage_retries == 2
        assert result.stats.storage_write_failures == 0
        assert result.final_env == baseline.final_env
        # Backoff is charged to the simulated clock.
        assert result.completion_time > baseline.completion_time


class TestReplication:
    def test_minority_bit_rot_masked_by_quorum(self):
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            storage_faults=[
                StorageFaultEvent(time=19.0, rank=2, kind=FaultKind.BIT_ROT,
                                  number=7, replica=1),
            ],
        )
        protocol = ApplicationDrivenProtocol()
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 10}, protocol=protocol,
            fault_plan=plan, storage_replicas=3,
        ).run()
        assert result.stats.completed
        # Quorum (2/3 copies intact) masks the rot: no fallback.
        assert protocol.recovered_to == [7]
        assert result.stats.recovery_fallbacks == 0

    def test_replica_out_of_range_rejected(self):
        plan = FaultPlan(storage_faults=[
            StorageFaultEvent(time=1.0, rank=0, kind=FaultKind.BIT_ROT,
                              replica=2),
        ])
        with pytest.raises(SimulationError, match="replica"):
            Simulation(
                ring_pipeline(), 3, params={"steps": 3},
                fault_plan=plan, storage_replicas=2,
            )

    def test_invalid_replica_count_rejected(self):
        with pytest.raises(SimulationError, match="storage replica"):
            Simulation(ring_pipeline(), 3, params={"steps": 3},
                       storage_replicas=0)


class TestOtherProtocols:
    def test_uncoordinated_skips_corrupt_checkpoints(self):
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            storage_faults=[
                StorageFaultEvent(time=19.0, rank=2, kind=FaultKind.BIT_ROT),
            ],
        )
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=UncoordinatedProtocol(period=6.0),
            fault_plan=plan,
        ).run()
        assert result.stats.completed
        assert result.stats.recovery_fallbacks == 1
        assert result.stats.fallback_depths and result.stats.fallback_depths[0] >= 1

    def test_logging_protocol_skips_corrupt_latest(self):
        # Rot at the crash instant: bit rot sorts ahead of a same-time
        # crash, so it is guaranteed to hit the victim's latest
        # checkpoint (processes store optimistically ahead of the
        # global clock, so an earlier rot time can land on a
        # checkpoint that is no longer the latest by crash time).
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            storage_faults=[
                StorageFaultEvent(time=19.5, rank=1, kind=FaultKind.BIT_ROT),
            ],
        )
        baseline = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=MessageLoggingProtocol(period=6.0),
        ).run()
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=MessageLoggingProtocol(period=6.0),
            fault_plan=plan,
        ).run()
        assert result.stats.completed
        assert result.stats.recovery_fallbacks == 1
        assert result.final_env == baseline.final_env


class TestDeterminism:
    def test_identical_traces_under_identical_fault_plan(self):
        # Each run parses its own program: equal texts number alike.
        first = run_ring(fault_plan=adversarial_plan())
        second = run_ring(fault_plan=adversarial_plan())
        assert_same_trace(first.trace, second.trace)
        assert first.stats == second.stats
        assert first.final_env == second.final_env
        assert first.completion_time == second.completion_time

    def test_zero_fault_plan_equivalent_to_no_plan(self):
        bare = run_ring()
        empty = run_ring(fault_plan=FaultPlan())
        assert_same_trace(bare.trace, empty.trace)
        assert bare.stats == empty.stats
        assert bare.final_env == empty.final_env

    def test_crash_only_fault_plan_matches_fault_plan(self):
        legacy = run_ring(fault_plan=FaultPlan.single(19.5, 1))
        modern = run_ring(fault_plan=FaultPlan(crashes=[(19.5, 1)]))
        assert_same_trace(legacy.trace, modern.trace)
        assert legacy.stats == modern.stats
