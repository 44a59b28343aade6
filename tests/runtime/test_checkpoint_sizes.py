"""Checkpoint size accounting: structural sizes, pinned to the encoder.

Every byte figure in the system — per-entry ``full_bytes`` and
``payload_bytes``, store-wide ``total_bytes``, the ``stored_bytes``
statistic, the ``snapshot_bytes`` gauge — is a structural size, pinned
equal to the encoder's output (the canonical bytes checksums and
torn-write staging operate on) but computed without building it. These
tests pin that equality under every checkpoint mode, the
full-vs-incremental semantics, that the engine's size-based
full-vs-delta decision is the one encoded lengths would make, and that
a fault-free run never asks for the bytes.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest

import repro.runtime.encoding
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.programs import jacobi, stencil_1d, stencil_halo, token_ring
from repro.obs import Observability
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FaultPlan, Simulation
from repro.runtime.config import CHECKPOINT_MODES
from repro.runtime.encoding import (
    checkpoint_payload,
    checkpoint_record,
    checkpoint_sizes,
    delta_record,
    encode_record,
    stored_payload,
)
from repro.runtime.storage import DELTA_CHAIN_CAP


def run(program, n, mode, steps=6, fault_plan=None, observer=None,
        retain_k=None, seed=0):
    return Simulation(
        program,
        n,
        params={"steps": steps},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=fault_plan or FaultPlan(),
        checkpoint_mode=mode,
        observer=observer,
        retain_k=retain_k,
        seed=seed,
    ).run()


def entries(result):
    return [
        checkpoint
        for rank in range(4)
        for checkpoint in result.storage.history(rank)
    ]


#: Two modes x two kernels x (no crash, one mid-run crash of rank 1).
SIZE_CASES = tuple(
    product(CHECKPOINT_MODES, (jacobi, stencil_halo), (False, True))
)


@lru_cache(maxsize=None)
def size_case(mode, make_program, crash):
    result = run(
        make_program(), 4, mode, steps=8,
        fault_plan=FaultPlan.single(9.0, 1) if crash else None,
    )
    assert result.stats.failures == int(crash)
    return result


class TestMeasuredSizes:
    def test_payload_bytes_is_wire_length(self):
        for case in SIZE_CASES:
            result = size_case(*case)
            survivors = entries(result)
            for checkpoint in survivors:
                # Both as the engine left the entry (sizes seeded by its
                # full-vs-delta decision) and as a cold copy.
                for entry in (checkpoint, replace(checkpoint)):
                    assert entry.full_bytes == len(
                        checkpoint_payload(entry)
                    ), case
                    assert entry.payload_bytes == len(
                        stored_payload(entry)
                    ), case
            assert result.stats.stored_bytes == sum(
                len(stored_payload(c)) for c in survivors
            ), case

    def test_full_mode_payload_equals_full(self):
        for case in SIZE_CASES:
            if case[0] != "full":
                continue
            result = size_case(*case)
            for checkpoint in entries(result):
                assert checkpoint.payload_kind == "full"
                assert checkpoint.payload_bytes == checkpoint.full_bytes
            assert result.storage.total_bytes() == (
                result.storage.total_bytes(incremental=True)
            )

    def test_every_checkpoint_carries_sizes(self):
        for case in SIZE_CASES:
            for checkpoint in entries(size_case(*case)):
                assert checkpoint.full_bytes > 0
                assert (
                    0 < checkpoint.payload_bytes <= checkpoint.full_bytes
                ), case


def decisions_from_encoded_lengths(history):
    """The wire form of each entry, decided the way the engine used to.

    The oracle: take the rank's previously published entry as the
    candidate parent (rollback truncates the history to the restored
    entry, so that is the predecessor in the surviving history), and
    store a delta iff the chain is below the cap, the pair is
    delta-encodable and the *encoded* delta is strictly shorter than
    the *encoded* full record.
    """
    decided = []
    depth_of = {}
    previous = None
    for checkpoint in history:
        decision = ("full", None, 0)
        if (
            previous is not None
            and depth_of[id(previous)] < DELTA_CHAIN_CAP
            and checkpoint_sizes(checkpoint, previous)[1] is not None
        ):
            delta = len(encode_record(delta_record(checkpoint, previous)))
            full = len(encode_record(checkpoint_record(checkpoint)))
            if delta < full:
                decision = (
                    "delta", previous.number, depth_of[id(previous)] + 1
                )
        decided.append(decision)
        depth_of[id(checkpoint)] = decision[2]
        previous = checkpoint
    return decided


class TestDecisionEquivalence:
    @pytest.mark.parametrize("make_program", [jacobi, stencil_halo])
    def test_sizes_decide_what_encoded_lengths_decided(self, make_program):
        result = size_case("pruned+delta", make_program, True)
        kinds = set()
        for rank in range(4):
            history = result.storage.history(rank)
            actual = [
                (
                    c.payload_kind,
                    None if c.parent is None else c.parent.number,
                    c.delta_depth,
                )
                for c in history
            ]
            assert actual == decisions_from_encoded_lengths(history)
            kinds.update(c.payload_kind for c in history)
        assert kinds == {"full", "delta"}


class TestNoBytesOnTheFaultFreePath:
    #: ``stats.stored_bytes`` of stencil_halo n=4 steps=8 retain_k=4,
    #: recorded at the commit before sizes became structural.
    STORED_BYTES = {"full": 9921, "pruned+delta": 4560}

    @pytest.mark.parametrize("mode", CHECKPOINT_MODES)
    def test_fault_free_run_never_encodes(self, mode, monkeypatch):
        def no_bytes(record):
            raise AssertionError("fault-free run asked for canonical bytes")

        # Every payload builder looks the name up in encoding.py.
        monkeypatch.setattr(
            repro.runtime.encoding, "encode_record", no_bytes
        )
        obs = Observability()
        result = run(
            stencil_halo(), 4, mode, steps=8, observer=obs.bus, retain_k=4
        )
        assert result.stats.completed
        assert result.stats.stored_bytes == self.STORED_BYTES[mode]
        # The commit/gc events and the reclaimed-bytes counter were
        # exercised, still without bytes.
        assert result.stats.gc_collected > 0
        assert result.stats.gc_reclaimed_bytes > 0
        assert obs.metrics.histogram("snapshot_bytes_dist").as_dict()[
            "count"
        ] > 0


class TestPayloadFloor:
    """Minimized content against full content, byte-exact, through a crash.

    Σ ``payload_bytes`` of the surviving history under ``full`` and
    ``pruned+delta`` is pinned to committed literals (any drift is a
    wire-format or sizer change), must equal the encoder's output, and
    must buy nothing but bytes: both modes recover through the same
    trace, clocks included, and end in the same state.
    """

    #: Statistics that count stored wire bytes, which the modes change.
    BYTE_STATS = ("stored_bytes", "gc_reclaimed_bytes")

    def fingerprint(self, result):
        events = tuple(
            (
                e.seq, e.time, e.process, e.kind.value, e.stmt_id,
                e.message_id, e.clock.components,
            )
            for e in result.trace.events
        )
        stats = result.stats.as_dict()
        for key in self.BYTE_STATS:
            del stats[key]
        return (
            events, stats, result.final_env, result.completion_time,
        )

    # ``stencil_halo`` is scratch-heavy, so pruning and deltas must at
    # least halve its payload; elsewhere minimized must not exceed full.
    @pytest.mark.parametrize(
        "make_program, n, steps, crash_time, full, minimized, floor",
        [
            pytest.param(stencil_halo, 8, 12, 29.5, 55706, 25760, 2.0,
                         id="stencil_halo_n8"),
            pytest.param(stencil_1d, 8, 8, 19.5, 16591, 16367, 1.0,
                         id="stencil_1d_n8"),
            pytest.param(token_ring, 48, 6, 39.5, 100992, 92136, 1.0,
                         id="token_ring_n48"),
        ],
    )
    def test_payload_bytes_pinned(
        self, make_program, n, steps, crash_time, full, minimized, floor
    ):
        base = make_program()
        totals = []
        fingerprints = []
        for mode in ("full", "pruned+delta"):
            result = run(
                ast.clone(base), n, mode, steps=steps,
                fault_plan=FaultPlan.single(crash_time, 1), seed=3,
            )
            assert result.stats.failures == 1
            survivors = [
                checkpoint
                for rank in range(n)
                for checkpoint in result.storage.history(rank)
            ]
            total = sum(c.payload_bytes for c in survivors)
            assert total == sum(len(stored_payload(c)) for c in survivors)
            totals.append(total)
            fingerprints.append(self.fingerprint(result))
        assert totals == [full, minimized]
        assert full >= floor * minimized
        assert fingerprints[0] == fingerprints[1]


class TestSizeSemantics:
    def test_mostly_constant_state_saves_a_lot(self):
        # A wide constant working set: only `i` changes between
        # checkpoints, so delta records shed all 26 constants (each
        # record still pays fixed framing — clock, cursors, frames —
        # which is why the bound is 0.7 and not near zero).
        constants = "\n".join(
            f"    c{k} = {k + 1}" for k in range(26)
        )
        program = parse(
            "program steady():\n"
            f"{constants}\n"
            "    i = 0\n"
            "    while i < 10:\n"
            "        checkpoint\n"
            "        i = i + 1\n"
        )
        result = run(program, 2, "pruned+delta")
        full = result.storage.total_bytes()
        incremental = result.storage.total_bytes(incremental=True)
        assert 0 < incremental < 0.7 * full

    def test_pruning_shrinks_even_full_payloads(self):
        full = run(stencil_halo(), 4, "full")
        pruned = run(stencil_halo(), 4, "pruned+delta")
        assert (
            pruned.storage.total_bytes() < full.storage.total_bytes()
        ), "dead scratch variables should vanish from captured content"

    def test_delta_chain_depth_is_capped(self):
        result = run(jacobi(), 4, "pruned+delta", steps=16)
        for checkpoint in entries(result):
            assert checkpoint.delta_depth <= DELTA_CHAIN_CAP
            assert len(checkpoint.delta_ancestors) == checkpoint.delta_depth

    def test_rollback_keeps_sizes_sane(self):
        result = run(
            jacobi(),
            4,
            "pruned+delta",
            steps=8,
            fault_plan=FaultPlan.single(9.0, 1),
        )
        for checkpoint in entries(result):
            assert checkpoint.payload_bytes <= checkpoint.full_bytes


class TestOneSourceOfTruth:
    def test_stats_match_storage_totals(self):
        result = run(jacobi(), 4, "pruned+delta")
        assert result.stats.stored_bytes == result.storage.total_bytes(
            incremental=True
        )

    def test_commit_gauge_reports_wire_bytes(self):
        obs = Observability()
        result = run(jacobi(), 4, "pruned+delta", observer=obs.bus)
        gauge = obs.metrics.gauge("snapshot_bytes").value
        # The gauge holds the most recently committed payload's wire
        # size — the same measure total_bytes(incremental=True) sums.
        assert gauge in {
            float(c.payload_bytes) for c in entries(result)
        }
        dist = obs.metrics.histogram("snapshot_bytes_dist").as_dict()
        assert dist["count"] > 0
