"""Delta-chain recovery under the fault matrix.

The claim under test: storing minimized checkpoint content (liveness
pruning + delta encoding) changes *bytes on the wire only*. Recovery
restores byte-identical state in every checkpoint mode, on both
backends, with bit rot on chain ancestors, bounded retention, and
transient restore-read faults in the mix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast_nodes as ast
from repro.lang.programs import jacobi, ring_pipeline, stencil_halo
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.config import CHECKPOINT_MODES
from repro.runtime.failures import (
    CrashEvent,
    FaultPlan,
    RecoveryFaultEvent,
    RecoveryFaultKind,
)

#: Statistics that legitimately differ across content modes: they count
#: stored/reclaimed *wire* bytes, which is exactly what the modes change.
BYTE_STATS = ("stored_bytes", "gc_reclaimed_bytes")

JACOBI = jacobi()
STENCIL_HALO = stencil_halo()
RING_PIPELINE = ring_pipeline()


def run(
    program,
    n,
    mode,
    steps=6,
    plan=None,
    backend="compiled",
    retain_k=None,
):
    sim = Simulation(
        program,
        n,
        params={"steps": steps},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=plan or FaultPlan(),
        checkpoint_mode=mode,
        backend=backend,
        retain_k=retain_k,
        seed=3,
    )
    return sim, sim.run()


def fingerprint(result):
    """Everything observable about a run except wire-byte accounting."""
    events = tuple(
        (
            e.seq, e.time, e.process, e.kind.value, e.stmt_id,
            e.message_id, e.clock.components,
        )
        for e in result.trace.events
    )
    stats = result.stats.as_dict()
    for key in BYTE_STATS:
        stats.pop(key, None)
    return (
        events, stats, result.final_env, result.completion_time,
    )


def first_delta_entry(storage, rank):
    for checkpoint in storage.history(rank):
        if checkpoint.payload_kind == "delta":
            return checkpoint
    raise AssertionError(f"rank {rank} stored no delta entry")


class TestAncestorBitRot:
    """Rot anywhere on a delta chain poisons every descendant — and
    only descendants; recovery degrades to an entry with a whole chain.
    """

    def run_and_rot(self):
        sim, result = run(ast.clone(JACOBI), 4, "pruned+delta", steps=10)
        assert result.stats.completed
        storage = sim.storage
        victim = first_delta_entry(storage, 0)
        ancestor = victim.delta_ancestors[-1]  # the chain's full root
        assert storage.corrupt(0, number=ancestor.number)
        return storage, victim, ancestor

    def test_chain_aware_verify_rejects_descendants(self):
        storage, victim, ancestor = self.run_and_rot()
        assert storage.verify(ancestor) is False
        assert storage.verify(victim) is False
        # Every entry chaining through the rotten root is unrestorable;
        # entries on other chains are untouched.
        for checkpoint in storage.history(0):
            on_chain = checkpoint is ancestor or any(
                a is ancestor for a in checkpoint.delta_ancestors
            )
            assert storage.verify(checkpoint) == (not on_chain)

    def test_degraded_read_skips_the_poisoned_chain(self):
        storage, victim, ancestor = self.run_and_rot()
        poisoned = {id(ancestor)} | {
            id(c)
            for c in storage.history(0)
            if any(a is ancestor for a in c.delta_ancestors)
        }
        survivors = storage.intact_history(0)
        assert survivors, "some chain must survive a single rotten root"
        assert all(id(c) not in poisoned for c in survivors)
        fallback, _depth = storage.latest_intact(0)
        assert storage.verify(fallback)
        assert id(fallback) not in poisoned

    def test_rot_on_an_interior_delta_spares_the_root(self):
        sim, result = run(ast.clone(JACOBI), 4, "pruned+delta", steps=10)
        storage = sim.storage
        victim = first_delta_entry(storage, 0)
        assert storage.corrupt(0, number=victim.number)
        assert storage.verify(victim) is False
        # The chain *below* the rotten delta is still whole.
        for ancestor in victim.delta_ancestors:
            assert storage.verify(ancestor) is True


class TestRetentionProtectsAncestors:
    """Bounded retention never evicts a parent a surviving delta needs."""

    @pytest.mark.parametrize("retain_k", [2, 4])
    def test_surviving_chains_stay_reconstructable(self, retain_k):
        sim, result = run(
            ast.clone(JACOBI), 4, "pruned+delta", steps=16, retain_k=retain_k
        )
        assert result.stats.completed
        for rank in range(4):
            history = sim.storage.history(rank)
            kept = {id(c) for c in history}
            for checkpoint in history:
                for ancestor in checkpoint.delta_ancestors:
                    assert id(ancestor) in kept, (
                        f"rank {rank} #{checkpoint.number} lost its "
                        f"parent #{ancestor.number} to GC"
                    )

    @pytest.mark.parametrize("retain_k", [2, 4])
    def test_gc_and_crash_recovery_compose(self, retain_k):
        sim, result = run(
            ast.clone(JACOBI),
            4,
            "pruned+delta",
            steps=8,
            plan=FaultPlan.single(9.0, 1),
            retain_k=retain_k,
        )
        assert result.stats.completed
        assert result.stats.rollbacks > 0
        for rank in range(4):
            history = sim.storage.history(rank)
            kept = {id(c) for c in history}
            for checkpoint in history:
                assert all(
                    id(a) in kept for a in checkpoint.delta_ancestors
                )


class TestRecoveryReadFaults:
    """Transient restore-read faults + minimized content: the retrying
    supervisor still lands on byte-identical state.
    """

    def plan(self):
        return FaultPlan(
            crashes=[CrashEvent(rank=1, time=9.0)],
            recovery_faults=[
                RecoveryFaultEvent(
                    recovery=0,
                    rank=1,
                    kind=RecoveryFaultKind.READ_FAULT,
                    attempts=2,
                )
            ],
        )

    def test_minimized_run_completes_through_read_faults(self):
        sim, result = run(
            ast.clone(JACOBI), 4, "pruned+delta", steps=8, plan=self.plan()
        )
        assert result.stats.completed
        assert result.stats.rollbacks > 0
        assert result.stats.recovery_read_faults >= 2

    def test_read_faulted_recovery_matches_full_mode(self):
        _, full = run(ast.clone(JACOBI), 4, "full", steps=8, plan=self.plan())
        _, minimized = run(
            ast.clone(JACOBI), 4, "pruned+delta", steps=8, plan=self.plan()
        )
        assert fingerprint(full) == fingerprint(minimized)


class TestCrossModeIdentity:
    """Both content modes x both backends: one behaviour."""

    CASES = [
        ("stencil_halo-clean", STENCIL_HALO, 6, None),
        ("stencil_halo-crash", STENCIL_HALO, 6, FaultPlan.single(9.5, 1)),
        ("ring_pipeline-crash", RING_PIPELINE, 6, FaultPlan.single(9.5, 1)),
    ]

    @pytest.mark.parametrize(
        "base,steps,plan",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_every_mode_and_backend_agrees(self, base, steps, plan):
        _, baseline = run(
            ast.clone(base), 4, "full", steps=steps, plan=plan
        )
        expected = fingerprint(baseline)
        if plan is not None:
            assert baseline.stats.rollbacks > 0
        for mode in CHECKPOINT_MODES:
            for backend in ("compiled", "reference"):
                _, result = run(
                    ast.clone(base),
                    4,
                    mode,
                    steps=steps,
                    plan=plan,
                    backend=backend,
                )
                assert fingerprint(result) == expected, (
                    f"mode={mode} backend={backend} diverged from "
                    f"full/compiled"
                )


class TestPrunedRestoreProperty:
    """restore(prune(snapshot)) == snapshot, end to end: a pruned+delta
    run is observationally identical to a full-content run for random
    crash schedules.
    """

    @given(
        rank=st.integers(min_value=0, max_value=3),
        half_steps=st.integers(min_value=4, max_value=30),
    )
    @settings(max_examples=15, deadline=None)
    def test_minimized_equals_full_under_random_crashes(
        self, rank, half_steps
    ):
        plan = FaultPlan.single(half_steps / 2.0, rank)
        _, full = run(ast.clone(JACOBI), 4, "full", steps=8, plan=plan)
        _, minimized = run(
            ast.clone(JACOBI), 4, "pruned+delta", steps=8, plan=plan
        )
        assert fingerprint(full) == fingerprint(minimized)
