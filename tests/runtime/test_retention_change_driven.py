"""Change-driven retention GC against its batch reference.

``RetentionPolicy.collect`` works in proportion to what changed: it
skips ranks whose history, common number and integrity verdicts have
not moved since they last settled, derives a rank's protected set once
per visit, and asks the store for verdicts that are O(1) for every
entry rot never touched. None of that may change *which* entries are
evicted or in what order. The batch algorithm it replaced lives on
below as :class:`BatchRetention` — re-deriving everything from scratch
for every victim — and a Hypothesis property drives both through the
same interleavings, checking every verdict against
:class:`QuorumModel`, replicas kept as independent copies. Two count
pins keep the cost from coming back unseen, and a regression test
covers the identity-keyed integrity records that used to outlive their
entries. The last section checks
that a finished run, fault-free or faulted under every protocol, is
freed by refcount alone: campaign cells run with the cyclic collector
paused on that assumption.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import protocol_cells
from repro.campaign.executor import _campaign_cell
from repro.campaign.spec import ScenarioSpec
from repro.causality.vector_clock import VectorClock
from repro.lang.programs import program_source, ring_pipeline, token_ring
from repro.protocols import ApplicationDrivenProtocol, make_protocol
from repro.runtime import FaultPlan, Simulation
from repro.runtime.failures import (
    CrashEvent,
    FaultKind,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)
from repro.runtime.effects import ProcessSnapshot
from repro.runtime.storage import (
    DELTA_CHAIN_CAP,
    CheckpointStore,
    RetentionPolicy,
    StoredCheckpoint,
)

from .reference_scheduler import ENGINES


# ----------------------------------------------------------------------
# The batch reference (the pre-change algorithm, verbatim in substance)
# ----------------------------------------------------------------------


class BatchRetention:
    """Retention GC that re-derives every protected set per victim."""

    def __init__(self, retain_k, protect_depth=3):
        self.retain_k = retain_k
        self.protect_depth = protect_depth

    def collect(self, storage, ranks):
        collected = 0
        reclaimed = 0
        # Scans every entry on purpose: also the reference for the
        # store's tracked per-rank max numbers.
        common = min(
            (
                max((c.number for c in storage.history(rank)), default=-1)
                for rank in ranks
            ),
            default=-1,
        )
        for rank in ranks:
            while storage.count(rank) > self.retain_k:
                history = storage.history(rank)
                victim = self._pick_victim(history, storage.verify, common)
                if victim is None:
                    break
                storage.discard(victim)
                collected += 1
                reclaimed += victim.payload_bytes
                storage._emit("gc", victim, bytes=victim.payload_bytes)
        storage.gc_collected += collected
        storage.gc_reclaimed_bytes += reclaimed
        return collected, reclaimed

    def _pick_victim(self, history, verify, common):
        protected = self._protected_ids(history, verify, common)
        candidates = [
            (position, checkpoint)
            for position, checkpoint in enumerate(history)
            if id(checkpoint) not in protected
        ]
        if not candidates:
            return None
        for _, checkpoint in candidates:
            if not verify(checkpoint):
                return checkpoint
        best = None
        best_gap = None
        for position, checkpoint in candidates:
            before = history[position - 1].time if position > 0 \
                else checkpoint.time
            after = history[position + 1].time \
                if position + 1 < len(history) else checkpoint.time
            gap = after - before
            if best_gap is None or gap < best_gap:
                best, best_gap = checkpoint, gap
        return best

    def _protected_ids(self, history, verify, common):
        protected = set()
        if not history:
            return protected
        protected.add(id(history[-1]))
        for checkpoint in history:
            if verify(checkpoint):
                protected.add(id(checkpoint))
                break
        for checkpoint in reversed(history):
            if verify(checkpoint):
                protected.add(id(checkpoint))
                break
        if common >= 0:
            floor = max(0, common - self.protect_depth)
            for number in range(floor, common + 1):
                for checkpoint in reversed(history):
                    if checkpoint.number == number and verify(checkpoint):
                        protected.add(id(checkpoint))
                        break
        for checkpoint in history:
            for ancestor in checkpoint.delta_ancestors:
                protected.add(id(ancestor))
        return protected


# ----------------------------------------------------------------------
# Differential property
# ----------------------------------------------------------------------


class QuorumModel:
    """``replicas`` independent copies of one history, for the verdicts.

    Each replica keeps the set of its copies that rot has hit (the
    entries themselves are held, so no identity is ever reused); an
    entry is restorable iff every link of its delta chain is intact on
    a strict majority of replicas.
    """

    def __init__(self, replicas):
        self.rotten = [{} for _ in range(replicas)]

    def corrupt(self, history, number, replica):
        rotten = self.rotten[replica]
        for entry in reversed(history):
            if number in (None, entry.number) and id(entry) not in rotten:
                rotten[id(entry)] = entry
                return True
        return False

    def verify(self, entry):
        majority = len(self.rotten) // 2 + 1
        while entry is not None:
            intact = sum(id(entry) not in rotten for rotten in self.rotten)
            if intact < majority:
                return False
            entry = entry.parent
        return True


class GcLog:
    """Stand-in observability bus: keeps the ``gc`` events, in order."""

    def __init__(self):
        self.events = []

    def emit(self, category, name, rank, time, **fields):
        if name == "gc":
            self.events.append((rank, time, fields["number"], fields["bytes"]))


def make_store(replicas):
    store = CheckpointStore(replicas=replicas)
    store.obs = GcLog()
    store.victims = []
    discard = store.discard

    def recording_discard(checkpoint):
        store.victims.append(checkpoint)
        discard(checkpoint)

    store.discard = recording_discard
    return store


def make_checkpoint(rank, number, time, parent, size):
    stored = StoredCheckpoint(
        rank=rank,
        number=number,
        snapshot=ProcessSnapshot(
            env={"n": number}, frames=(), checkpoint_count=number,
            input_counters={},
        ),
        clock=VectorClock.zero(3).tick(rank),
        time=time,
        channel_cursors={},
        tag="t",
        payload_kind="full" if parent is None else "delta",
        parent=parent,
        delta_depth=0 if parent is None else parent.delta_depth + 1,
    )
    stored.__dict__.update(_full_bytes=size, _payload_bytes=size // 2)
    return stored


RANKS = (0, 1)

STORE = st.tuples(
    st.just("store"), st.sampled_from(RANKS),
    st.booleans(),                    # chain to the previous entry?
    st.integers(1, 4),                # time gap to it
)
CORRUPT = st.tuples(
    st.just("corrupt"), st.sampled_from(RANKS),
    st.one_of(st.none(), st.integers(0, 6)),   # target number
    st.integers(0, 3),                         # replica (mod count)
)
TRUNCATE = st.tuples(
    st.just("truncate"), st.sampled_from(RANKS),
    st.integers(0, 3),                # entries to roll back over
)
# Each step is one change and whether a collection follows it at once
# (the engine's pattern) or further changes pile up first. Weighted
# towards publishes: a rank has to outgrow its budget and settle before
# a disturbance can show whether the skip rule notices it.
STEPS = st.lists(
    st.tuples(
        st.one_of(STORE, STORE, STORE, STORE, CORRUPT, TRUNCATE),
        st.booleans(),
    ),
    min_size=8,
    max_size=80,
)


@settings(max_examples=400, deadline=None)
@given(
    steps=STEPS,
    replicas=st.sampled_from((1, 3, 4)),
    retain_k=st.integers(2, 4),
    protect_depth=st.integers(0, 3),
)
def test_change_driven_collect_matches_batch_reference(
    steps, replicas, retain_k, protect_depth
):
    """Same victims, same ``gc`` events, same totals — whatever happens
    between two collections (publishes with delta chains up to the cap,
    rot on any replica, rollbacks that re-take numbers)."""
    new, old = stores = make_store(replicas), make_store(replicas)
    model = QuorumModel(replicas)
    policies = (
        RetentionPolicy(retain_k, protect_depth=protect_depth),
        BatchRetention(retain_k, protect_depth=protect_depth),
    )
    # Both stores hold the *same* checkpoint objects, so victims can be
    # compared by identity.
    last = {}
    clock = 0.0
    for rank in RANKS:
        last[rank] = make_checkpoint(rank, 0, clock, None, 100)
        for store in stores:
            store.store(last[rank])
    for (op, rank, *args), then_collect in steps:
        if op == "store":
            chain, gap = args
            parent = last[rank]
            if not chain or parent.delta_depth >= DELTA_CHAIN_CAP:
                parent = None
            clock += gap
            last[rank] = make_checkpoint(
                rank, last[rank].number + 1, clock, parent,
                size=100 + 10 * gap,
            )
            for store in stores:
                store.store(last[rank])
        elif op == "corrupt":
            number, replica = args
            replica %= replicas
            rotted = model.corrupt(new.history(rank), number, replica)
            assert [
                store.corrupt(rank, number=number, replica=replica)
                for store in stores
            ] == [rotted, rotted]
        else:
            history = new.history(rank)
            # Roll back to an older entry: later numbers are re-taken.
            last[rank] = history[max(0, len(history) - 1 - args[0])]
            dropped = {store.truncate_to(last[rank]) for store in stores}
            assert len(dropped) == 1
        if then_collect:
            results = [
                policy.collect(store, RANKS)
                for policy, store in zip(policies, stores)
            ]
            assert results[0] == results[1]
            assert [id(v) for v in new.victims] == [
                id(v) for v in old.victims
            ]
            assert new.obs.events == old.obs.events
        for rank in RANKS:
            assert [id(c) for c in new.history(rank)] == [
                id(c) for c in old.history(rank)
            ]
            assert [new.verify(c) for c in new.history(rank)] == [
                old.verify(c) for c in old.history(rank)
            ] == [model.verify(c) for c in new.history(rank)]
    assert new.gc_collected == old.gc_collected == len(new.victims)
    assert new.gc_reclaimed_bytes == old.gc_reclaimed_bytes


def test_policy_reused_on_another_store_starts_unsettled():
    """Settled stamps describe one store; a second one is looked at."""
    policy = RetentionPolicy(retain_k=2, protect_depth=5)
    # Same revision, common number and integrity revision on both
    # stores; only the second has anything evictable (older instances
    # of a re-taken number).
    for numbers, collected in (((0, 1, 2, 3, 4), 0), ((0, 4, 4, 4, 4), 3)):
        store = CheckpointStore()
        for time, number in enumerate(numbers):
            store.store(make_checkpoint(0, number, float(time), None, 100))
        assert policy.collect(store, [0]) == (collected, collected * 100)


# ----------------------------------------------------------------------
# Operation-count pins
# ----------------------------------------------------------------------


RING_PIPELINE = ring_pipeline()


def faulted_replicated_cell():
    """One fixed replicated, faulted, ``retain_k=4`` cell (n = 4)."""
    plan = FaultPlan(
        crashes=[(31.5, 2)],
        storage_faults=[
            StorageFaultEvent(
                time=12.0, rank=1, kind=FaultKind.BIT_ROT, replica=1
            ),
            StorageFaultEvent(
                time=30.0, rank=3, kind=FaultKind.BIT_ROT, replica=0
            ),
            StorageFaultEvent(
                time=30.5, rank=3, kind=FaultKind.BIT_ROT, replica=2
            ),
        ],
    )
    return Simulation(
        RING_PIPELINE, 4, params={"steps": 24},
        protocol=ApplicationDrivenProtocol(), fault_plan=plan,
        storage_replicas=3, retain_k=4, checkpoint_mode="pruned+delta",
        seed=3,
    )


class TestOperationCounts:
    def test_idle_collect_makes_no_verify_call(self, monkeypatch):
        """Nothing published, truncated or rotted since the previous
        collect: every over-budget rank is settled, nothing is asked."""
        sim = faulted_replicated_cell()
        result = sim.run()
        assert result.stats.completed
        storage, ranks = sim.storage, range(sim.n)
        # Not vacuous: a rank is pinned above its budget by its
        # protected set, the case a batch collect re-examines forever.
        assert any(storage.count(rank) > 4 for rank in ranks)
        calls = []
        verify = storage.verify
        monkeypatch.setattr(
            storage, "verify", lambda c: calls.append(c) or verify(c)
        )
        assert sim._retention.collect(storage, ranks) == (0, 0)
        assert calls == []
        # ... and any rot anywhere un-settles them.
        assert storage.corrupt(0, replica=1)
        assert sim._retention.collect(storage, ranks) == (0, 0)
        assert calls

    @pytest.mark.parametrize("replicas, evicted", ((1, 1), (3, 0)))
    def test_rot_unsettles_a_pinned_rank(self, replicas, evicted):
        """A settled rank is pinned by verdicts too: losing one (not a
        minority of replicas) frees its entry for the next collect."""
        store = make_store(replicas)
        for number in range(6):
            store.store(make_checkpoint(0, number, float(number), None, 100))
        policy = RetentionPolicy(retain_k=2, protect_depth=5)
        assert policy.collect(store, [0]) == (0, 0)      # all in the window
        assert store.corrupt(0, number=3, replica=replicas - 1)
        assert policy.collect(store, [0]) == (evicted, evicted * 100)
        assert [v.number for v in store.victims] == [3] * evicted

    def test_protected_sets_derived_per_change_not_per_rank(
        self, monkeypatch
    ):
        counts = {"derived": 0, "collects": 0}
        protected = RetentionPolicy._protected
        collect = RetentionPolicy.collect

        def counting_protected(self, *args):
            counts["derived"] += 1
            return protected(self, *args)

        def counting_collect(self, *args):
            counts["collects"] += 1
            return collect(self, *args)

        monkeypatch.setattr(RetentionPolicy, "_protected", counting_protected)
        monkeypatch.setattr(RetentionPolicy, "collect", counting_collect)
        sim = faulted_replicated_cell()
        stats = sim.run().stats
        assert stats.gc_collected > 0 and stats.bit_rot_injected == 3
        assert stats.rollbacks == 1
        assert 0 < counts["derived"] <= (
            counts["collects"] + stats.gc_collected + stats.bit_rot_injected
        )


# ----------------------------------------------------------------------
# Integrity records leave with their entry
# ----------------------------------------------------------------------


def integrity_records(store):
    return set().union(store._touched, store._detected, *store._checksums)


@pytest.mark.parametrize("replicas", (1, 3))
@pytest.mark.parametrize("leave", ("discard", "truncate_to"))
def test_departed_entry_leaves_no_integrity_record(replicas, leave):
    store = make_store(replicas)
    entries = [
        make_checkpoint(0, number, float(number), None, 100)
        for number in range(4)
    ]
    for entry in entries:
        store.store(entry)
    for replica in range(replicas):
        assert store.corrupt(0, number=2, replica=replica)
    assert store.intact_with_number(0, 2) is None
    assert store.corruption_detected == 1
    assert integrity_records(store) == {id(entries[2])}
    if leave == "discard":
        store.discard(entries[2])
    else:
        store.truncate_to(entries[1])
    assert integrity_records(store) == set()
    # Detection is a count, not a set of live ids: it survives the purge.
    assert store.corruption_detected == 1


class EventNames:
    """Stand-in observability bus: keeps every event name, in order."""

    def __init__(self):
        self.names = []

    def emit(self, category, name, rank, time, **fields):
        self.names.append(name)


def test_rot_on_a_recycled_identity_is_detected():
    """GC evicts a detected-corrupt entry; CPython hands its block to
    the next checkpoint; rot on *that* one must count and be reported."""
    store = CheckpointStore()
    store.obs = events = EventNames()
    for number in range(3):
        store.store(make_checkpoint(0, number, float(number), None, 100))
    doomed = make_checkpoint(0, 3, 3.0, None, 100)
    store.store(doomed)
    assert store.corrupt(0, number=3)
    assert store.intact_with_number(0, 3) is None
    assert store.corruption_detected == 1
    content = make_checkpoint(0, 4, 4.0, None, 100).__dict__
    recycled = id(doomed)
    store.discard(doomed)
    del doomed
    # Allocate bare instances until the freed block comes back (usually
    # at once), then fill the one that got it — the engine builds its
    # checkpoints through ``__dict__`` the same way.
    keep = []
    for _ in range(100_000):
        fresh = StoredCheckpoint.__new__(StoredCheckpoint)
        if id(fresh) == recycled:
            break
        keep.append(fresh)
    else:
        pytest.skip("allocator never reused the freed identity")
    fresh.__dict__.update(content)
    store.store(fresh)
    assert store.verify(fresh)
    assert store.corrupt(0, number=4)
    assert store.intact_with_number(0, 4) is None
    assert store.corruption_detected == 2
    assert events.names.count("corrupt-detected") == 2


# ----------------------------------------------------------------------
# Refcount-only teardown
# ----------------------------------------------------------------------


def _assert_freed_by_refcount(retries=0, engine=Simulation, **knobs):
    """Run ``token_ring`` n=16 on *engine* under *knobs* (taking
    *retries* recovery retries on the way), drop it, and expect nothing
    left to collect."""
    program = token_ring()
    gc.collect()
    gc.disable()
    try:
        sim = engine(
            program, 16, params={"steps": 4},
            protocol=make_protocol("appl-driven", 6.0), **knobs,
        )
        result = sim.run()
        assert result.stats.completed
        assert result.stats.recovery_retries == retries
        del sim, result
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("scheduler", ENGINES)
def test_finished_fault_free_simulation_is_freed_by_refcount(scheduler):
    """No reference cycle through a fault-free ``Simulation``: dropping
    the last reference frees it, nothing is left for the collector."""
    _assert_freed_by_refcount(engine=ENGINES[scheduler])


@pytest.mark.parametrize(
    "kind", (RecoveryFaultKind.CRASH, RecoveryFaultKind.CONTROL_LOST)
)
def test_finished_retried_recovery_is_freed_by_refcount(kind):
    """Nor through one whose recovery was retried: the supervisor drops
    the retried error once an attempt succeeds — its traceback holds
    the frames of ``recover`` and its callers, whose locals are the
    simulation — so such a run is freed by refcount too."""
    _assert_freed_by_refcount(retries=2, fault_plan=FaultPlan(
        crashes=[(12.0, 3)],
        recovery_faults=[
            RecoveryFaultEvent(recovery=0, rank=3, kind=kind, attempts=2),
        ],
    ))


def _every_fault_class(horizon):
    """A crash plus network, storage and recovery faults, aimed at
    fractions of a run that lasts about *horizon* simulated seconds."""
    def at(share):
        return round(share * horizon, 6)

    net = NetworkFaultKind
    return FaultPlan(
        crashes=[CrashEvent(time=at(0.5), rank=2)],
        max_failures=1,
        network_faults=[
            NetworkFaultEvent(time=at(0.1), kind=net.DROP, src=0, dst=1),
            NetworkFaultEvent(time=at(0.2), kind=net.DUPLICATE, src=1, dst=2),
            NetworkFaultEvent(
                time=at(0.3), kind=net.DELAY, src=2, dst=3, delay=1.5
            ),
            NetworkFaultEvent(time=at(0.4), kind=net.CORRUPT, src=3, dst=0),
            NetworkFaultEvent(time=at(0.15), kind=net.PARTITION, src=1, dst=3),
            NetworkFaultEvent(
                time=at(0.15) + 2.0, kind=net.HEAL, src=1, dst=3
            ),
        ],
        storage_faults=[
            StorageFaultEvent(
                time=at(0.3), rank=1, kind=FaultKind.BIT_ROT, replica=1
            ),
            StorageFaultEvent(time=at(0.2), rank=3, kind=FaultKind.TRANSIENT),
        ],
        recovery_faults=[
            RecoveryFaultEvent(
                recovery=0, rank=0, kind=RecoveryFaultKind.CRASH
            ),
        ],
    )


@pytest.mark.parametrize("steps", (8, 32))
def test_finished_faulted_campaign_cell_leaves_no_cycle(steps):
    """The campaign executor pauses the cyclic collector while a cell
    runs, so a cell must free everything it drops by refcount: under
    every protocol, a replicated, retention-bounded, observed cell that
    recovers from a crash through network, storage and recovery faults
    leaves nothing for the collector once it returns its outcome."""
    workload = ScenarioSpec(
        label="ring_pipeline", program=program_source("ring_pipeline"),
        n_processes=4, params={"steps": steps},
    )
    cells = protocol_cells(
        workload,
        protocols=("appl-driven", "sas", "cl", "cic", "uncoordinated",
                   "msg-logging"),
        period=5.0, storage_replicas=3, retain_k=4, observe=True,
        # One ring_pipeline iteration takes about 3.72 simulated seconds
        # at n = 4.
        fault_plan=_every_fault_class(steps * 3.72),
    )
    for spec in cells:
        gc.collect()
        gc.disable()
        try:
            outcome = _campaign_cell(spec)
            assert gc.collect() == 0, spec.label
        finally:
            gc.enable()
        assert outcome.ok, (spec.label, outcome.error)
        stats = outcome.stats
        assert (stats["failures"], stats["nested_crashes"]) == (1, 1)
        assert stats["bit_rot_injected"] == stats["storage_retries"] == 1
        assert stats["retransmits"] > 0 and stats["gc_collected"] > 0
