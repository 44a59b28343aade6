"""Bounded-storage retention: the k-per-rank policy and its safe-GC
invariant.

The property at stake (ISSUE acceptance): GC never removes the deepest
intact checkpoint of any rank — nor the latest intact one, nor the
degraded-fallback candidates around the recovery line — under
arbitrary interleavings of stores, corruptions, and collections,
including under even-replica quorum verification.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.vector_clock import VectorClock
from repro.errors import StorageError
from repro.lang.programs import ring_pipeline
from repro.protocols import ApplicationDrivenProtocol, UncoordinatedProtocol
from repro.runtime import (
    FaultPlan,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    Simulation,
)
from repro.runtime.effects import ProcessSnapshot
from repro.runtime.storage import (
    CheckpointStore,
    RetentionPolicy,
    StoredCheckpoint,
)


def checkpoint(rank, number, time=None, size=100):
    stored = StoredCheckpoint(
        rank=rank,
        number=number,
        snapshot=ProcessSnapshot(
            env={"n": number}, frames=(), checkpoint_count=number,
            input_counters={},
        ),
        clock=VectorClock.zero(4).tick(rank),
        time=float(number) if time is None else time,
        channel_cursors={},
        tag="t",
    )
    # Seed the lazy byte cache so reclaimed-byte accounting is exact
    # and deterministic in these structural tests.
    stored.__dict__["_full_bytes"] = size
    return stored


class TestRetentionPolicy:
    def test_rejects_degenerate_k(self):
        with pytest.raises(StorageError):
            RetentionPolicy(retain_k=1)
        with pytest.raises(StorageError):
            RetentionPolicy(retain_k=4, protect_depth=-1)

    def test_bounds_occupancy(self):
        store = CheckpointStore()
        for number in range(12):
            store.store(checkpoint(0, number))
        policy = RetentionPolicy(retain_k=4, protect_depth=1)
        collected, reclaimed = policy.collect(store, [0])
        assert store.count(0) == 4
        assert collected == 8
        assert reclaimed == 8 * 100
        assert store.gc_collected == 8
        assert store.gc_reclaimed_bytes == 8 * 100

    def test_newest_and_deepest_survive(self):
        store = CheckpointStore()
        entries = [checkpoint(0, number) for number in range(10)]
        for entry in entries:
            store.store(entry)
        RetentionPolicy(retain_k=3, protect_depth=0).collect(store, [0])
        history = store.history(0)
        assert entries[0] in history
        assert entries[-1] in history

    def test_corrupt_entries_evicted_first(self):
        store = CheckpointStore()
        for number in range(8):
            store.store(checkpoint(0, number))
        assert store.corrupt(0, number=4)
        RetentionPolicy(retain_k=6, protect_depth=0).collect(store, [0])
        numbers = [c.number for c in store.history(0)]
        assert 4 not in numbers
        assert store.count(0) == 6

    def test_greedy_spacing_merges_smallest_gap(self):
        # Times 0, 1, 2, 10, 20: evicting "1" merges the smallest gap
        # (0..2); the well-spaced tail must be kept.
        store = CheckpointStore()
        for number, time in enumerate((0.0, 1.0, 2.0, 10.0, 20.0)):
            store.store(checkpoint(0, number, time=time))
        RetentionPolicy(retain_k=4, protect_depth=0).collect(store, [0])
        times = [c.time for c in store.history(0)]
        assert times == [0.0, 2.0, 10.0, 20.0]

    def test_stops_at_protected_set(self):
        # With a deep protection window, every entry may be protected;
        # occupancy then exceeds retain_k rather than breaking the
        # recovery line.
        store = CheckpointStore()
        for number in range(6):
            store.store(checkpoint(0, number))
        policy = RetentionPolicy(retain_k=2, protect_depth=5)
        policy.collect(store, [0])
        numbers = {c.number for c in store.history(0)}
        # Common number is 5; the whole fallback window 0..5 survives.
        assert numbers == {0, 1, 2, 3, 4, 5}


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 2)),
        st.tuples(st.just("corrupt"), st.integers(0, 2)),
        st.tuples(st.just("collect"), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(
    ops=OPS,
    retain_k=st.integers(2, 4),
    protect_depth=st.integers(0, 3),
)
def test_gc_never_removes_recovery_floor(ops, retain_k, protect_depth):
    """The deepest and latest intact checkpoints of every rank survive
    any store/corrupt/collect interleaving."""
    store = CheckpointStore()
    policy = RetentionPolicy(retain_k=retain_k, protect_depth=protect_depth)
    ranks = [0, 1, 2]
    counters = {rank: 0 for rank in ranks}
    for rank in ranks:  # every rank starts with its initial checkpoint
        store.store(checkpoint(rank, 0))
        counters[rank] = 1
    for op, rank in ops:
        if op == "store":
            store.store(checkpoint(rank, counters[rank]))
            counters[rank] += 1
        elif op == "corrupt":
            store.corrupt(rank)
        else:
            floors = {}
            for r in ranks:
                intact = [c for c in store.history(r) if store.verify(c)]
                floors[r] = (
                    intact[0] if intact else None,
                    intact[-1] if intact else None,
                )
            policy.collect(store, ranks)
            for r in ranks:
                history = store.history(r)
                deepest, latest = floors[r]
                if deepest is not None:
                    assert deepest in history
                    assert latest in history
                assert history, "GC emptied a rank's history"


@settings(max_examples=60, deadline=None)
@given(ops=OPS, retain_k=st.integers(2, 4))
def test_gc_under_even_replica_quorum(ops, retain_k):
    """With replicas=2 every rot breaks quorum (2 of 2 required), the
    harshest verification regime — the floor must still survive."""
    store = CheckpointStore(replicas=2)
    policy = RetentionPolicy(retain_k=retain_k, protect_depth=2)
    ranks = [0, 1]
    counters = {rank: 1 for rank in ranks}
    for rank in ranks:
        store.store(checkpoint(rank, 0))
    replica = 0
    for op, rank in ops:
        rank = rank % 2
        if op == "store":
            store.store(checkpoint(rank, counters[rank]))
            counters[rank] += 1
        elif op == "corrupt":
            # Alternate which replica rots; quorum=2 means either one
            # kills the entry.
            store.corrupt(rank, replica=replica)
            replica = 1 - replica
        else:
            floors = {}
            for r in ranks:
                intact = [c for c in store.history(r) if store.verify(c)]
                floors[r] = intact[0] if intact else None
            policy.collect(store, ranks)
            for r in ranks:
                if floors[r] is not None:
                    assert floors[r] in store.history(r)


class TestRetentionInEngine:
    def test_bounded_run_matches_unbounded(self):
        unbounded = Simulation(
            ring_pipeline(), 3, params={"steps": 30},
            protocol=UncoordinatedProtocol(period=6.0),
        ).run()
        bounded = Simulation(
            ring_pipeline(), 3, params={"steps": 30},
            protocol=UncoordinatedProtocol(period=6.0), retain_k=2,
        ).run()
        assert bounded.final_env == unbounded.final_env
        assert bounded.stats.gc_collected > 0
        assert (
            bounded.stats.stored_checkpoints
            < unbounded.stats.stored_checkpoints
        )

    def test_retention_with_crash_recovery(self):
        baseline = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
        ).run()
        plan = FaultPlan(crashes=[(19.5, 1)])
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(), fault_plan=plan,
            retain_k=3,
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_retention_with_escalated_recovery(self):
        # Nested crashes escalate the fallback two cuts deep while GC
        # runs with k=3: the degraded candidates must still be there.
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            recovery_faults=[RecoveryFaultEvent(
                recovery=0, rank=1, kind=RecoveryFaultKind.CRASH,
                attempts=2,
            )],
        )
        baseline = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
        ).run()
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(), fault_plan=plan,
            retain_k=3,
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline.final_env

    def test_occupancy_stats_surface(self):
        result = Simulation(
            ring_pipeline(), 3, params={"steps": 20},
            protocol=UncoordinatedProtocol(period=6.0), retain_k=2,
        ).run()
        stats = result.stats.as_dict()
        assert stats["stored_checkpoints"] == result.storage.total_count()
        assert stats["stored_bytes"] == result.storage.total_bytes()
        assert stats["gc_collected"] == result.storage.gc_collected
        assert (
            stats["gc_reclaimed_bytes"]
            == result.storage.gc_reclaimed_bytes
        )
