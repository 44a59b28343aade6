"""Fault-plan validation and fault-tolerant storage unit tests."""

import pytest

from repro.causality.vector_clock import VectorClock
from repro.errors import ChannelError, SimulationError, StorageError
from repro.runtime.failures import (
    CrashEvent,
    FailurePlan,
    FaultKind,
    FaultPlan,
    StorageFaultEvent,
    exponential_fault_plan,
)
from repro.runtime.interpreter import ProcessSnapshot
from repro.runtime.storage import (
    CheckpointStore,
    ReplicatedCheckpointStore,
    StoredCheckpoint,
    checkpoint_checksum,
)


def checkpoint(rank, number, time=0.0, tag="", env=None):
    return StoredCheckpoint(
        rank=rank,
        number=number,
        snapshot=ProcessSnapshot(
            env=dict(env or {}), frames=(), checkpoint_count=number,
            input_counters={},
        ),
        clock=VectorClock.zero(2).tick(rank),
        time=time,
        channel_cursors={},
        tag=tag,
    )


class TestFailurePlanValidation:
    def test_negative_crash_time_rejected(self):
        with pytest.raises(SimulationError, match="crash time"):
            FailurePlan(crashes=[CrashEvent(time=-1.0, rank=0)])

    def test_negative_crash_rank_rejected(self):
        with pytest.raises(SimulationError, match="crash rank"):
            FailurePlan(crashes=[CrashEvent(time=1.0, rank=-2)])

    def test_negative_max_failures_rejected(self):
        with pytest.raises(SimulationError, match="max_failures"):
            FailurePlan(max_failures=-1)

    def test_duplicate_time_rank_rejected(self):
        with pytest.raises(SimulationError, match="duplicate crash"):
            FailurePlan(
                crashes=[CrashEvent(5.0, 1), CrashEvent(5.0, 1)]
            )

    def test_same_time_different_ranks_allowed(self):
        plan = FailurePlan(crashes=[CrashEvent(5.0, 0), CrashEvent(5.0, 1)])
        assert len(plan.effective()) == 2


class TestFaultPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultPlan(storage_faults=[
                StorageFaultEvent(time=1.0, rank=0, kind="meteor-strike")
            ])

    def test_string_kind_normalised(self):
        plan = FaultPlan(storage_faults=[
            StorageFaultEvent(time=1.0, rank=0, kind="bit-rot")
        ])
        assert plan.storage_faults[0].kind is FaultKind.BIT_ROT

    def test_negative_fault_time_rejected(self):
        with pytest.raises(SimulationError, match="fault time"):
            FaultPlan(storage_faults=[
                StorageFaultEvent(time=-0.5, rank=0, kind=FaultKind.BIT_ROT)
            ])

    def test_bad_attempts_and_replica_rejected(self):
        with pytest.raises(SimulationError, match="attempts"):
            FaultPlan(storage_faults=[
                StorageFaultEvent(time=1.0, rank=0,
                                  kind=FaultKind.TRANSIENT, attempts=0)
            ])
        with pytest.raises(SimulationError, match="replica"):
            FaultPlan(storage_faults=[
                StorageFaultEvent(time=1.0, rank=0,
                                  kind=FaultKind.BIT_ROT, replica=-1)
            ])

    def test_duplicate_fault_rejected(self):
        fault = StorageFaultEvent(time=1.0, rank=0, kind=FaultKind.BIT_ROT)
        with pytest.raises(SimulationError, match="duplicate storage fault"):
            FaultPlan(storage_faults=[fault, fault])

    def test_splits_write_and_rot_events(self):
        plan = FaultPlan(storage_faults=[
            StorageFaultEvent(time=2.0, rank=0, kind=FaultKind.BIT_ROT),
            StorageFaultEvent(time=1.0, rank=1, kind=FaultKind.TORN_WRITE),
            StorageFaultEvent(time=3.0, rank=0, kind=FaultKind.TRANSIENT),
        ])
        assert [f.kind for f in plan.rot_events()] == [FaultKind.BIT_ROT]
        assert len(plan.write_faults()) == 2

    def test_exponential_fault_plan_reproducible(self):
        a = exponential_fault_plan(4, 200.0, failure_rate=0.01,
                                   storage_fault_rate=0.05, seed=7)
        b = exponential_fault_plan(4, 200.0, failure_rate=0.01,
                                   storage_fault_rate=0.05, seed=7)
        assert a.storage_faults == b.storage_faults
        assert a.crashes == b.crashes
        assert a.storage_faults  # rate high enough to draw some

    def test_exponential_fault_plan_zero_rate_empty(self):
        plan = exponential_fault_plan(4, 100.0)
        assert plan.storage_faults == [] and plan.crashes == []


class TestChecksums:
    def test_checksum_deterministic_per_content(self):
        a = checkpoint(0, 1, time=2.0, env={"x": 1})
        b = checkpoint(0, 1, time=2.0, env={"x": 1})
        assert checkpoint_checksum(a) == checkpoint_checksum(b)

    def test_checksum_sensitive_to_content(self):
        a = checkpoint(0, 1, env={"x": 1})
        b = checkpoint(0, 1, env={"x": 2})
        assert checkpoint_checksum(a) != checkpoint_checksum(b)


class TestCheckpointStore:
    def test_clean_store_matches_stable_storage(self):
        store = CheckpointStore()
        receipt = store.store(checkpoint(0, 0))
        assert receipt.published and receipt.retries == 0
        assert store.latest(0).number == 0
        assert store.verify(store.latest(0))

    def test_write_fail_publishes_nothing(self):
        store = CheckpointStore(max_retries=2)
        fault = StorageFaultEvent(time=0.0, rank=0, kind=FaultKind.WRITE_FAIL)
        receipt = store.store(checkpoint(0, 1), fault=fault)
        assert not receipt.published
        assert receipt.retries == 2  # budget exhausted
        assert store.count(0) == 0  # atomic: nothing half-visible

    def test_torn_write_detected_and_discarded(self):
        store = CheckpointStore()
        fault = StorageFaultEvent(time=0.0, rank=0, kind=FaultKind.TORN_WRITE)
        receipt = store.store(checkpoint(0, 1), fault=fault)
        assert not receipt.published and receipt.torn
        assert store.count(0) == 0

    def test_transient_within_budget_succeeds(self):
        store = CheckpointStore(max_retries=3)
        fault = StorageFaultEvent(
            time=0.0, rank=0, kind=FaultKind.TRANSIENT, attempts=2
        )
        receipt = store.store(checkpoint(0, 1), fault=fault)
        assert receipt.published and receipt.retries == 2
        assert store.count(0) == 1

    def test_transient_beyond_budget_fails(self):
        store = CheckpointStore(max_retries=1)
        fault = StorageFaultEvent(
            time=0.0, rank=0, kind=FaultKind.TRANSIENT, attempts=5
        )
        receipt = store.store(checkpoint(0, 1), fault=fault)
        assert not receipt.published
        assert store.count(0) == 0

    def test_bit_rot_caught_by_verify(self):
        store = CheckpointStore()
        store.store(checkpoint(0, 0))
        store.store(checkpoint(0, 1))
        assert store.corrupt(0)  # latest
        assert not store.verify(store.latest(0))
        assert store.verify(store.history(0)[0])

    def test_corrupt_targets_specific_number(self):
        store = CheckpointStore()
        store.store(checkpoint(0, 0))
        store.store(checkpoint(0, 1))
        assert store.corrupt(0, number=0)
        assert store.verify(store.latest(0))
        assert not store.verify(store.history(0)[0])

    def test_corrupt_missing_target_is_noop(self):
        store = CheckpointStore()
        assert not store.corrupt(3)
        assert not store.corrupt(0, number=9)

    def test_intact_with_number_skips_corrupt(self):
        store = CheckpointStore()
        store.store(checkpoint(0, 1, time=1.0))
        store.store(checkpoint(0, 1, time=9.0))  # re-taken after rollback
        store.corrupt(0, number=1)  # hits the most recent instance
        survivor = store.intact_with_number(0, 1)
        assert survivor is not None and survivor.time == 1.0
        store.corrupt(0, number=1)  # now the older instance too
        assert store.intact_with_number(0, 1) is None
        assert store.corruption_detected == 2

    def test_latest_intact_reports_depth(self):
        store = CheckpointStore()
        store.store(checkpoint(0, 0))
        store.store(checkpoint(0, 1))
        store.store(checkpoint(0, 2))
        store.corrupt(0, number=2)
        survivor, depth = store.latest_intact(0)
        assert survivor.number == 1 and depth == 1

    def test_latest_intact_all_corrupt_raises(self):
        store = CheckpointStore()
        store.store(checkpoint(0, 0))
        store.corrupt(0)
        with pytest.raises(StorageError, match="no intact checkpoint"):
            store.latest_intact(0)

    def test_intact_history_filters(self):
        store = CheckpointStore()
        store.store(checkpoint(0, 0))
        store.store(checkpoint(0, 1))
        store.corrupt(0, number=1)
        assert [c.number for c in store.intact_history(0)] == [0]

    def test_foreign_checkpoint_treated_intact(self):
        # Checkpoints the store never published have no integrity record.
        store = CheckpointStore()
        assert store.verify(checkpoint(0, 5))


class TestReplicatedStore:
    def test_minority_rot_masked_by_quorum(self):
        store = ReplicatedCheckpointStore(replicas=3)
        store.store(checkpoint(0, 0))
        assert store.corrupt(0, replica=1)
        assert store.verify(store.latest(0))  # 2/3 intact

    def test_majority_rot_fails_quorum(self):
        store = ReplicatedCheckpointStore(replicas=3)
        store.store(checkpoint(0, 0))
        store.corrupt(0, replica=0)
        store.corrupt(0, replica=2)
        assert not store.verify(store.latest(0))

    def test_primary_rot_twice_does_not_heal_its_copy(self):
        # The primary picks its target by its own copy, as a mirror
        # does: its one entry rotted, a second rot finds nothing left
        # to rot rather than flipping the checksum back.
        store = ReplicatedCheckpointStore(replicas=3)
        store.store(checkpoint(0, 0))
        assert store.corrupt(0, replica=0)
        assert not store.corrupt(0, replica=0)
        entry = store.latest(0)
        assert not CheckpointStore._intact_entry(store, entry)
        assert store.verify(entry)  # 2/3 intact
        assert store.corrupt(0, replica=1)
        assert not store.verify(entry)  # 1/3: quorum lost

    def test_replica_out_of_range_rejected(self):
        store = ReplicatedCheckpointStore(replicas=3)
        store.store(checkpoint(0, 0))
        with pytest.raises(StorageError, match="replica"):
            store.corrupt(0, replica=3)

    def test_truncate_keeps_mirrors_in_sync(self):
        store = ReplicatedCheckpointStore(replicas=2)
        keep = checkpoint(0, 1)
        store.store(checkpoint(0, 0))
        store.store(keep)
        store.store(checkpoint(0, 2))
        assert store.truncate_to(keep) == 1
        for mirror in store._mirrors:
            assert mirror.latest(0) is keep

    def test_discard_keeps_mirrors_in_sync(self):
        store = ReplicatedCheckpointStore(replicas=2)
        victim = checkpoint(0, 0)
        store.store(victim)
        store.store(checkpoint(0, 1))
        store.discard(victim)
        for mirror in store._mirrors:
            assert mirror.count(0) == 1


class TestEvenReplicaQuorum:
    """Quorum edges with an even replica count (no strict majority tie).

    With ``k`` replicas the quorum is ``k // 2 + 1``: for even ``k`` an
    exact half-split of intact copies must FAIL verification — a tie is
    not a majority.
    """

    def test_two_replicas_need_both(self):
        store = ReplicatedCheckpointStore(replicas=2)
        store.store(checkpoint(0, 0))
        assert store.quorum == 2
        assert store.verify(store.latest(0))  # 2/2 intact
        store.corrupt(0, replica=1)
        assert not store.verify(store.latest(0))  # 1/2 is a tie, not quorum

    def test_two_replicas_primary_rot_also_fails(self):
        store = ReplicatedCheckpointStore(replicas=2)
        store.store(checkpoint(0, 0))
        store.corrupt(0, replica=0)
        assert not store.verify(store.latest(0))

    def test_four_replicas_split_verdict_fails(self):
        store = ReplicatedCheckpointStore(replicas=4)
        store.store(checkpoint(0, 0))
        assert store.quorum == 3
        store.corrupt(0, replica=1)
        store.corrupt(0, replica=3)
        assert not store.verify(store.latest(0))  # 2/4 split verdict

    def test_four_replicas_single_rot_masked(self):
        store = ReplicatedCheckpointStore(replicas=4)
        store.store(checkpoint(0, 0))
        store.corrupt(0, replica=2)
        assert store.verify(store.latest(0))  # 3/4 >= quorum

    def test_four_replicas_majority_rot_fails(self):
        store = ReplicatedCheckpointStore(replicas=4)
        store.store(checkpoint(0, 0))
        for replica in (0, 1, 2):
            store.corrupt(0, replica=replica)
        assert not store.verify(store.latest(0))


class TestStructuredErrors:
    def test_storage_error_carries_context(self):
        error = StorageError("boom", rank=2, number=5, replica=1)
        assert error.rank == 2 and error.number == 5 and error.replica == 1
        assert "rank=2" in str(error)
        assert "checkpoint=5" in str(error)
        assert "replica=1" in str(error)

    def test_storage_error_context_optional(self):
        error = StorageError("boom")
        assert error.rank is None
        assert str(error) == "boom"

    def test_channel_error_carries_context(self):
        error = ChannelError("empty", src=1, dst=2, lane="p2p")
        assert (error.src, error.dst, error.lane) == (1, 2, "p2p")
        assert "src=1" in str(error) and "lane=p2p" in str(error)

    def test_raise_sites_populate_context(self):
        store = CheckpointStore()
        with pytest.raises(StorageError) as info:
            store.latest(7)
        assert info.value.rank == 7
        with pytest.raises(StorageError) as info:
            store.latest_with_number(1, 4)
        assert info.value.rank == 1 and info.value.number == 4

    def test_network_consume_empty_carries_channel(self):
        from repro.runtime.network import Network

        with pytest.raises(ChannelError) as info:
            Network(2).consume(0, 1, "p2p")
        assert (info.value.src, info.value.dst) == (0, 1)
        assert info.value.lane == "p2p"
