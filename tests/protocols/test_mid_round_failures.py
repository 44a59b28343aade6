"""Crashes landing in the middle of coordinated rounds.

The hard edge for SaS/C-L: a failure while a round is in flight must
abort the round (stale control messages ignored), fall back to the last
*completed* round, and still finish with correct results. A round
with a member that lost its storage quorum is skipped like one with a
member gone. With no completed round left, the fallback straight cut
must be consistent.
"""

import pytest

from repro.campaign.spec import ScenarioSpec
from repro.lang.programs import (
    RING_PIPELINE_SOURCE,
    jacobi_odd_even,
    jacobi_plain,
)
from repro.protocols import ChandyLamportProtocol, SyncAndStopProtocol
from repro.runtime import FaultPlan, Simulation, chaos
from repro.runtime.failures import CrashEvent, FaultKind, StorageFaultEvent


@pytest.fixture(scope="module")
def baseline():
    return Simulation(jacobi_plain(), 4, params={"steps": 20}).run()


def run_with_crashes(protocol, crashes):
    plan = FaultPlan(crashes=[CrashEvent(t, r) for t, r in crashes])
    return Simulation(
        jacobi_plain(), 4, params={"steps": 20},
        protocol=protocol, fault_plan=plan,
    ).run()


class TestSaSMidRound:
    def test_crash_right_after_round_start(self, baseline):
        protocol = SyncAndStopProtocol(period=8)
        # round starts at t=8; STOP messages land ~8.05
        result = run_with_crashes(protocol, [(8.2, 2)])
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_crash_between_stop_and_resume(self, baseline):
        protocol = SyncAndStopProtocol(period=8)
        # kill the coordinator itself mid-round
        result = run_with_crashes(protocol, [(8.1, 0)])
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_rounds_continue_after_recovery(self, baseline):
        protocol = SyncAndStopProtocol(period=6)
        result = run_with_crashes(protocol, [(6.2, 1)])
        assert result.stats.completed
        # at least one round completed after the crash
        assert protocol.completed_rounds
        assert result.final_env == baseline.final_env


class TestCLMidRound:
    def test_crash_during_marker_flood(self, baseline):
        protocol = ChandyLamportProtocol(period=8)
        result = run_with_crashes(protocol, [(8.07, 3)])
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_crash_of_initiator_mid_round(self, baseline):
        protocol = ChandyLamportProtocol(period=8)
        result = run_with_crashes(protocol, [(8.02, 0)])
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_two_crashes_spanning_rounds(self, baseline):
        protocol = ChandyLamportProtocol(period=7)
        result = run_with_crashes(protocol, [(7.1, 1), (15.0, 2)])
        assert result.stats.completed
        assert result.stats.rollbacks == 2
        assert result.final_env == baseline.final_env


@pytest.mark.parametrize("make", [SyncAndStopProtocol, ChandyLamportProtocol])
def test_fallback_skips_inconsistent_straight_cut(make):
    # The crash precedes the first round, and jacobi_odd_even's R_1 is
    # not a recovery line (Figure 2's unsafe placement), so recovery
    # must descend to R_0.
    def run(plan=None):
        return Simulation(
            jacobi_odd_even(), 4, params={"steps": 8},
            protocol=make(period=10.0), fault_plan=plan,
        ).run()

    result = run(FaultPlan.single(1.972, 0))
    assert result.stats.completed
    assert result.stats.rollbacks == 1
    assert result.stats.recovery_fallbacks == 1
    assert result.final_env == run().final_env


@pytest.mark.parametrize("protocol, rot, crash", [
    ("cl", 19.5, 20.0), ("sas", 19.6, 20.1),
])
@pytest.mark.parametrize("rotten", [1, 2])
def test_a_round_that_lost_its_quorum_is_skipped(protocol, rot, crash, rotten):
    # Rank 0's checkpoint 9 is round 3's member. Rot on two replicas of
    # three loses its quorum, so recovery must restore round 2 instead
    # of refusing the corrupt member; rot on one keeps the quorum.
    def spec(plan=None):
        return ScenarioSpec(
            label=protocol, program=RING_PIPELINE_SOURCE, n_processes=3,
            params={"steps": 8}, protocol=protocol, period=6.0,
            storage_replicas=3, fault_plan=plan,
        )

    faulted = spec(FaultPlan(
        crashes=[CrashEvent(crash, 1)],
        storage_faults=[
            StorageFaultEvent(rot, 0, FaultKind.BIT_ROT, 9, replica)
            for replica in range(rotten)
        ],
    ))
    sim = faulted.build()
    result = sim.run()
    assert result.stats.completed
    assert result.stats.fallback_depths == ([1] if rotten == 2 else [])
    assert chaos.judge(faulted, sim, result) is None
    assert result.final_env == spec().build().run().final_env
