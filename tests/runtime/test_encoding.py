"""Canonical checkpoint encoding: round-trip, canonicity, delta algebra.

The contract every byte-consumer (checksums, replication, torn-write
staging, accounting, delta storage) relies on: encoding is
deterministic and type-faithful, and a delta record applied to its
parent's full record reconstructs the child's full record
*byte-identically* — not merely ``==``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.vector_clock import VectorClock
from repro.errors import StorageError
from repro.lang.parser import parse
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.encoding import (
    checkpoint_record,
    checkpoint_sizes,
    decode_record,
    delta_record,
    encode_record,
    encoded_size,
)
from repro.runtime.effects import ProcessSnapshot
from repro.runtime.storage import StoredCheckpoint

from .delta_oracle import apply_delta

# The closed value universe checkpoints can contain (module contract).
scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.none(),
)
values = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner), max_leaves=6
)

#: Exponents where an integer's byte length, or the varint holding that
#: length, changes width (127 length bytes = 1015 magnitude bits).
BOUNDARY_BITS = (7, 8, 15, 1015, 1016, 2039, 2040, 4096)
boundary_ints = st.builds(
    lambda bits, sign, offset: sign * (2**bits + offset),
    st.sampled_from(BOUNDARY_BITS),
    st.sampled_from((1, -1)),
    st.integers(min_value=-1, max_value=1),
)
#: ``values`` widened to every length-prefix boundary the sizer mirrors:
#: long integers, strings of >= 128 UTF-8 bytes (ASCII and not), tuples
#: of >= 128 items, and bools inside integer tuples.
sized_values = st.one_of(
    values,
    boundary_ints,
    st.text(min_size=128, max_size=200),
    st.text(st.characters(max_codepoint=127), min_size=128, max_size=200),
    st.lists(scalars, min_size=128, max_size=140).map(tuple),
    st.lists(
        st.one_of(st.booleans(), st.integers(0, 1), boundary_ints),
        max_size=8,
    ).map(tuple),
)


def make_checkpoint(
    env,
    rank=0,
    number=1,
    clock=(1, 0),
    time=1.0,
    cursors=None,
    inputs=None,
    stmt_label=0,
    parent=None,
    kind="full",
):
    vc = VectorClock.zero(len(clock))
    vc = type(vc)(components=tuple(clock))
    return StoredCheckpoint(
        rank=rank,
        number=number,
        snapshot=ProcessSnapshot(
            env=dict(env),
            frames=(),
            checkpoint_count=number,
            input_counters=dict(inputs or {}),
        ),
        clock=vc,
        time=time,
        channel_cursors=dict(cursors or {}),
        stmt_id=None,
        stmt_label=stmt_label,
        tag="t",
        payload_kind=kind,
        parent=parent,
        delta_depth=0 if parent is None else parent.delta_depth + 1,
    )


class TestRoundTrip:
    @given(value=values)
    @settings(max_examples=200, deadline=None)
    def test_decode_inverts_encode(self, value):
        assert decode_record(encode_record(value)) == value

    @given(value=values)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_preserves_types(self, value):
        def shape(v):
            if isinstance(v, tuple):
                return tuple(shape(item) for item in v)
            return type(v)

        assert shape(decode_record(encode_record(value))) == shape(value)

    def test_bool_and_int_do_not_collide(self):
        assert encode_record(True) != encode_record(1)
        assert encode_record(False) != encode_record(0)
        assert decode_record(encode_record(True)) is True
        assert decode_record(encode_record(1)) == 1

    def test_equal_values_encode_identically(self):
        a = ("full", 1, 2, (("x", 3),), 4.0, None)
        b = ("full", 1, 2, (("x", 3),), 4.0, None)
        assert encode_record(a) == encode_record(b)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(StorageError):
            decode_record(encode_record(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode_record(b"\xff")

    def test_unencodable_type_rejected(self):
        with pytest.raises(StorageError):
            encode_record([1, 2])

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_power_of_two_integers_round_trip(self, bits):
        # The integer's byte length is itself a varint, so magnitudes
        # past 1015 bits (length >= 128) and 2040 bits (length >= 256)
        # encode instead of overflowing a single length byte.
        for value in (2**bits, -(2**bits)):
            assert decode_record(encode_record(value)) == value

    def test_big_integer_variable_does_not_crash_byte_accounting(self):
        # Twelve squarings of 3 need ~6500 bits; a one-byte length
        # field ended this run with a bare ValueError from total_bytes.
        source = (
            "program big():\n    x = 3\n"
            + "    x = x * x\n" * 12
            + "    checkpoint\n"
        )
        for mode in ("full", "pruned+delta"):
            result = Simulation(
                parse(source), 2,
                protocol=ApplicationDrivenProtocol(),
                checkpoint_mode=mode,
            ).run()
            assert result.stats.completed
            assert result.stats.stored_bytes > 0


class TestStructuralSize:
    @given(value=sized_values)
    @settings(max_examples=300, deadline=None)
    def test_size_equals_encoded_length(self, value):
        assert encoded_size(value) == len(encode_record(value))

    def test_bool_is_not_sized_as_int(self):
        assert encoded_size((True, 1)) == len(encode_record((True, 1)))
        assert encoded_size(True) != encoded_size(1)

    def test_unencodable_type_rejected(self):
        with pytest.raises(StorageError):
            encoded_size(([1, 2],))

    @pytest.mark.parametrize(
        "clock, parent_clock",
        [
            ((1, 0), (0, 0)),
            ((127,) * 130, (126,) * 130),  # indices past 127
            ((128, 3), (127, 3)),  # two-byte component
            ((2**70, -1, 5), (2**70, 0, 4)),  # off the fast path
            ((True, 1), (1, 1)),  # bool component, == its parent
        ],
    )
    def test_checkpoint_sizes_equal_both_record_lengths(
        self, clock, parent_clock
    ):
        cursors = {(0, 1, "p2p"): (3, 2)}
        parent = make_checkpoint(
            {"x": 1, "y": "é" * 70}, clock=parent_clock, cursors=cursors,
            inputs={"in": 1},
        )
        child = make_checkpoint(
            {"x": True, "y": "é" * 70, "z": 2**2040}, number=2,
            clock=clock, cursors={**cursors, (1, 0, "p2p"): (1, 1)},
            inputs={"in": 2},
        )
        assert checkpoint_sizes(child, parent)[1] is not None
        assert checkpoint_sizes(child, parent) == (
            len(encode_record(checkpoint_record(child))),
            len(encode_record(delta_record(child, parent))),
        )
        assert checkpoint_sizes(child) == (
            len(encode_record(checkpoint_record(child))), None
        )


class TestDeltaAlgebra:
    def test_reconstruction_is_byte_identical(self):
        parent = make_checkpoint({"x": 1, "y": 2}, number=1)
        child = make_checkpoint(
            {"x": 1, "y": 3, "z": 4}, number=2, clock=(2, 0), time=2.0
        )
        assert checkpoint_sizes(child, parent)[1] is not None
        rebuilt = apply_delta(
            checkpoint_record(parent), delta_record(child, parent)
        )
        assert encode_record(rebuilt) == encode_record(
            checkpoint_record(child)
        )

    def test_true_vs_one_counts_as_a_change(self):
        # == comparison would treat True and 1 as unchanged and
        # reconstruct the wrong type; the delta must be type-strict.
        parent = make_checkpoint({"flag": 1})
        child = make_checkpoint({"flag": True}, number=2)
        rebuilt = apply_delta(
            checkpoint_record(parent), delta_record(child, parent)
        )
        assert encode_record(rebuilt) == encode_record(
            checkpoint_record(child)
        )

    def test_unchanged_slots_are_absent_from_the_delta(self):
        parent = make_checkpoint({"x": 1, "y": 2, "z": 3})
        child = make_checkpoint(
            {"x": 1, "y": 9, "z": 3}, number=2
        )
        record = delta_record(child, parent)
        env_changes = record[4]
        assert env_changes == (("y", 9),)

    def test_env_prefix_rule(self):
        parent = make_checkpoint({"x": 1, "y": 2})
        reordered = make_checkpoint({"y": 2, "x": 1}, number=2)
        shrunk = make_checkpoint({"x": 1}, number=2)
        appended = make_checkpoint({"x": 1, "y": 2, "z": 3}, number=2)
        assert checkpoint_sizes(reordered, parent)[1] is None
        assert checkpoint_sizes(shrunk, parent)[1] is None
        assert checkpoint_sizes(appended, parent)[1] is not None

    def test_cross_rank_not_encodable(self):
        parent = make_checkpoint({"x": 1}, rank=0)
        child = make_checkpoint({"x": 1}, rank=1, number=2)
        assert checkpoint_sizes(child, parent)[1] is None

    def test_clock_width_mismatch_not_encodable(self):
        parent = make_checkpoint({"x": 1}, clock=(1, 0))
        child = make_checkpoint({"x": 1}, number=2, clock=(1, 0, 0))
        assert checkpoint_sizes(child, parent)[1] is None

    def test_apply_delta_rejects_wrong_parent(self):
        parent = make_checkpoint({"x": 1}, number=1)
        other = make_checkpoint({"x": 5}, number=7)
        child = make_checkpoint({"x": 2}, number=2)
        delta = delta_record(child, parent)
        with pytest.raises(StorageError):
            apply_delta(checkpoint_record(other), delta)

    def test_apply_delta_rejects_kind_confusion(self):
        parent = make_checkpoint({"x": 1})
        child = make_checkpoint({"x": 2}, number=2)
        full = checkpoint_record(child)
        delta = delta_record(child, parent)
        with pytest.raises(StorageError):
            apply_delta(full, full)
        with pytest.raises(StorageError):
            apply_delta(delta, delta)

    @given(
        base=st.dictionaries(
            st.text(min_size=1, max_size=6), scalars, max_size=6
        ),
        updates=st.dictionaries(
            st.text(min_size=1, max_size=6), scalars, max_size=6
        ),
        appended=st.lists(scalars, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_property(self, base, updates, appended):
        # Forward execution only updates existing slots or appends new
        # ones; under that rule reconstruction must be byte-identical
        # for arbitrary value mixes.
        parent = make_checkpoint(base)
        child_env = dict(base)
        child_env.update(
            {k: v for k, v in updates.items() if k in child_env}
        )
        for position, value in enumerate(appended):
            child_env[f"new{position}"] = value
        child = make_checkpoint(child_env, number=2, clock=(2, 0))
        assert checkpoint_sizes(child, parent)[1] is not None
        rebuilt = apply_delta(
            checkpoint_record(parent), delta_record(child, parent)
        )
        assert encode_record(rebuilt) == encode_record(
            checkpoint_record(child)
        )
