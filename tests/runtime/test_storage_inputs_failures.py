"""Stable-storage, input-provider, and failure-plan tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.causality.vector_clock import VectorClock
from repro.errors import SimulationError, StorageError
from repro.runtime.failures import CrashEvent, FaultPlan, exponential_fault_plan
from repro.runtime.inputs import _MASK, InputProvider, _label_hash, _mix
from repro.runtime.interpreter import ProcessSnapshot
from repro.runtime.storage import CheckpointStore, StoredCheckpoint


def checkpoint(rank, number, time=0.0, tag=""):
    return StoredCheckpoint(
        rank=rank,
        number=number,
        snapshot=ProcessSnapshot(
            env={}, frames=(), checkpoint_count=number, input_counters={}
        ),
        clock=VectorClock.zero(2).tick(rank),
        time=time,
        channel_cursors={},
        tag=tag,
    )


class TestStorage:
    def test_store_and_latest(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 0))
        storage.store(checkpoint(0, 1))
        assert storage.latest(0).number == 1

    def test_latest_missing_rank(self):
        with pytest.raises(StorageError, match="no checkpoint"):
            CheckpointStore().latest(3)

    def test_latest_with_number_picks_most_recent_instance(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 1, time=1.0))
        storage.store(checkpoint(0, 1, time=9.0))
        assert storage.latest_with_number(0, 1).time == 9.0

    def test_latest_with_number_missing(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 0))
        with pytest.raises(StorageError):
            storage.latest_with_number(0, 5)

    def test_latest_with_tag(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 1, tag="sas-1"))
        storage.store(checkpoint(0, 2, tag="sas-2"))
        assert storage.latest_with_tag(0, "sas-1").number == 1
        assert storage.latest_with_tag(0, "nope") is None

    def test_max_common_number(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 0))
        storage.store(checkpoint(0, 1))
        storage.store(checkpoint(0, 2))
        storage.store(checkpoint(1, 0))
        storage.store(checkpoint(1, 1))
        assert storage.max_common_number([0, 1]) == 1

    def test_max_common_number_empty_rank(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 0))
        assert storage.max_common_number([0, 1]) == -1

    def test_truncate_to(self):
        storage = CheckpointStore()
        keep = checkpoint(0, 1)
        storage.store(checkpoint(0, 0))
        storage.store(keep)
        storage.store(checkpoint(0, 2))
        dropped = storage.truncate_to(keep)
        assert dropped == 1
        assert storage.latest(0) is keep

    def test_truncate_unknown_checkpoint(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 0))
        with pytest.raises(StorageError, match="not in storage"):
            storage.truncate_to(checkpoint(0, 9))

    def test_counts(self):
        storage = CheckpointStore()
        storage.store(checkpoint(0, 0))
        storage.store(checkpoint(1, 0))
        storage.store(checkpoint(1, 1))
        assert storage.count(1) == 2
        assert storage.total_count() == 3


class TestInputProvider:
    def test_deterministic_per_seed(self):
        a = InputProvider(seed=5)
        b = InputProvider(seed=5)
        assert a.value("x", 0) == b.value("x", 0)

    def test_different_seeds_differ(self):
        assert InputProvider(seed=1).value("x", 0) != InputProvider(seed=2).value(
            "x", 0
        )

    def test_stream_advances(self):
        provider = InputProvider()
        assert provider.value("x", 0) != provider.value("x", 0)

    def test_labels_and_ranks_independent(self):
        provider = InputProvider()
        x0 = provider.value("x", 0)
        provider.value("y", 1)
        fresh = InputProvider()
        assert fresh.value("x", 0) == x0

    def test_snapshot_restore_replays(self):
        provider = InputProvider(seed=3)
        provider.value("x", 0)
        snap = provider.snapshot(0)
        second = provider.value("x", 0)
        provider.restore(0, snap)
        assert provider.value("x", 0) == second

    def test_restore_does_not_affect_other_ranks(self):
        provider = InputProvider()
        provider.value("x", 0)
        provider.value("x", 1)
        snap = provider.snapshot(0)
        next_for_1 = provider.value("x", 1)
        provider.restore(0, snap)
        assert provider.value("x", 1) != next_for_1  # rank 1 stream moved on

    def test_cycle_matches_flat_keyed_oracle(self):
        """Values and snapshot dict order equal those of one flat
        ``(label, rank)`` counter map, through snapshot/restore/replay."""

        class FlatOracle:
            def __init__(self, seed):
                self.seed, self.counters = seed, {}

            def value(self, label, rank):
                occurrence = self.counters.get((label, rank), 0)
                self.counters[(label, rank)] = occurrence + 1
                return _mix(self.seed, _label_hash(label), rank, occurrence)

            def snapshot(self, rank):
                return {
                    label: count
                    for (label, r), count in self.counters.items()
                    if r == rank
                }

            def restore(self, rank, counters):
                for key in [k for k in self.counters if k[1] == rank]:
                    del self.counters[key]
                for label, count in counters.items():
                    self.counters[(label, rank)] = count

        def drive(provider):
            seen = []

            def draw(*pairs):
                seen.extend(provider.value(label, rank) for label, rank in pairs)

            def capture(rank):
                snap = provider.snapshot(rank)
                seen.append(list(snap.items()))
                return snap

            draw(("b", 1), ("a", 0), ("b", 0), ("a", 1), ("b", 0))
            early = capture(0)
            draw(("c", 0), ("a", 0), ("c", 1))
            capture(0)
            provider.restore(0, early)  # rollback: "c" disappears
            capture(0)
            draw(("c", 0), ("a", 0), ("b", 0))  # replay, new label order
            capture(0)
            capture(1)  # untouched by rank 0's rollback
            capture(2)  # a rank that never drew
            provider.restore(1, {"z": 4, "a": 0})
            draw(("a", 1), ("z", 1))
            capture(1)
            return seen

        assert drive(InputProvider(seed=9)) == drive(FlatOracle(seed=9))


SRC = Path(__file__).resolve().parents[2] / "src"

#: Labels of every string kind CPython stores: ASCII, Latin-1, UCS-2
#: and UCS-4, across the 8-byte block boundary.
LABELS = ["", "x", "noise", "routing", "abcdefg", "abcdefgh", "abcdefghi",
          "café", "Ābc", "日本語ラベル", "z\U0001F600"]


def _python(script: str, hash_seed: int) -> str:
    """Stdout of *script* in a fresh interpreter under *hash_seed*."""
    return subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env={
            **os.environ, "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": str(hash_seed),
        },
    ).stdout


class TestInputsIgnoreTheHashSeed:
    """``input()`` draws the same values in every process, so a killed
    campaign resumed in a fresh interpreter never mixes two streams."""

    def test_final_environment_is_the_same_under_any_hash_seed(self):
        script = """
import json
from repro.campaign.executor import _campaign_cell
from repro.campaign.spec import ScenarioSpec
from repro.lang.programs import program_source
spec = ScenarioSpec(
    label="irregular", program=program_source("irregular_dispatch"),
    n_processes=4, params={"steps": 4},
)
print(json.dumps(_campaign_cell(spec).to_json_dict()["final_env"]))
"""
        first, second = (_python(script, seed) for seed in (1, 2))
        assert json.loads(first)["0"]["r"] > 0
        assert first == second

    def test_label_hash_is_the_string_hash_at_hash_seed_zero(self):
        # Values drawn before the hash seed stopped mattering (under
        # PYTHONHASHSEED=0) are the values drawn now.
        script = f"print([hash(label) & {_MASK} for label in {LABELS!r}])"
        expected = [_label_hash(label) for label in LABELS]
        assert _python(script, 0) == f"{expected}\n"


class TestCrashSchedules:
    def test_crashes_sorted_by_time(self):
        plan = FaultPlan(
            crashes=[CrashEvent(5.0, 1), CrashEvent(2.0, 0), CrashEvent(9.0, 2)]
        )
        times = [c.time for c in plan.effective()]
        assert times == sorted(times)

    def test_single_and_none(self):
        assert FaultPlan().effective() == []
        plan = FaultPlan.single(3.0, 1)
        assert len(plan.effective()) == 1

    def test_max_failures_cap(self):
        plan = FaultPlan(
            crashes=[CrashEvent(float(i), 0) for i in range(10)],
            max_failures=3,
        )
        assert len(plan.effective()) == 3

    def test_exponential_plan_reproducible(self):
        a = exponential_fault_plan(4, 100, failure_rate=0.05, seed=1)
        b = exponential_fault_plan(4, 100, failure_rate=0.05, seed=1)
        assert [(c.time, c.rank) for c in a.crashes] == [
            (c.time, c.rank) for c in b.crashes
        ]

    def test_exponential_plan_within_horizon(self):
        plan = exponential_fault_plan(4, 50, failure_rate=0.1, seed=2)
        assert all(c.time < 50 for c in plan.crashes)

    def test_zero_rate_empty(self):
        assert exponential_fault_plan(4, 50, failure_rate=0.0).crashes == []

    def test_invalid_args(self):
        with pytest.raises(SimulationError):
            exponential_fault_plan(2, 10, failure_rate=-1.0)
        with pytest.raises(SimulationError):
            exponential_fault_plan(2, 0, failure_rate=0.1)

    def test_rate_scales_count(self):
        sparse = exponential_fault_plan(8, 200, failure_rate=0.01, seed=0)
        dense = exponential_fault_plan(8, 200, failure_rate=0.1, seed=0)
        assert len(dense.crashes) > len(sparse.crashes)
