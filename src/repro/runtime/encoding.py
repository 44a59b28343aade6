"""Canonical binary encoding of checkpoint content.

One stable serialisation shared by every consumer of checkpoint bytes —
write-time checksums, replication quorums, torn-write staging, and the
delta encoder — replacing the earlier ``repr()`` hack, which was
neither self-describing nor type-faithful (``repr`` cannot distinguish
re-parsable equal values, and its output was never decodable). Byte
accounting does not consume bytes: :func:`encoded_size` and
:func:`checkpoint_sizes` give the exact length of the canonical form
structurally, so a fault-free run never builds it.

The format is a minimal tag–length–value scheme over the closed value
universe checkpoints actually contain (ints, bools, floats, strings,
``None``, tuples): deterministic (no hashes, no pointers, dict content
is emitted in a defined order by the record builders), self-delimiting
(decodable without an external schema), and canonical (equal values
encode to equal bytes; ``bool`` and ``int`` are distinct types so
``True`` and ``1`` do not collide).

Two record shapes exist on the wire:

- ``("full", ...)`` — the complete durable content of one checkpoint;
- ``("delta", ...)`` — only the fields changed since the *parent*
  checkpoint (the rank's previously published entry): changed/added
  environment slots, changed vector-clock components, changed channel
  cursors and input counters. Scalars and control frames are tiny and
  always stored whole. :func:`apply_delta` reconstructs the full record
  from a parent's (recursively reconstructed) full record; the result
  is byte-identical to encoding the checkpoint directly, which is what
  lets checksums be defined over *reconstructed* content.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import compress
from operator import attrgetter, ne

from repro.errors import StorageError

_PACK_F64 = struct.Struct(">d").pack
_UNPACK_F64 = struct.Struct(">d").unpack_from


def _varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode_into(out: bytearray, value) -> None:
    cls = value.__class__
    if cls is int:
        out.append(0x49)  # 'I'
        length = (value.bit_length() + 8) // 8
        _varint(out, length)
        out += value.to_bytes(length, "big", signed=True)
    elif cls is str:
        out.append(0x53)  # 'S'
        raw = value.encode("utf-8")
        _varint(out, len(raw))
        out += raw
    elif cls is tuple:
        out.append(0x54)  # 'T'
        _varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif cls is bool:
        out.append(0x42)  # 'B'
        out.append(1 if value else 0)
    elif cls is float:
        out.append(0x46)  # 'F'
        out += _PACK_F64(value)
    elif value is None:
        out.append(0x4E)  # 'N'
    else:
        raise StorageError(
            f"value of type {cls.__name__} is not checkpoint-encodable"
        )


def encode_record(record) -> bytes:
    """Canonical bytes of one (full or delta) checkpoint record."""
    out = bytearray()
    _encode_into(out, record)
    return bytes(out)


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _decode_from(data: bytes, pos: int) -> tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == 0x49:
        length, pos = _decode_varint(data, pos)
        return int.from_bytes(data[pos : pos + length], "big", signed=True), \
            pos + length
    if tag == 0x53:
        length, pos = _decode_varint(data, pos)
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == 0x54:
        count, pos = _decode_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == 0x42:
        return bool(data[pos]), pos + 1
    if tag == 0x46:
        return _UNPACK_F64(data, pos)[0], pos + 8
    if tag == 0x4E:
        return None, pos
    raise StorageError(f"corrupt checkpoint encoding (tag 0x{tag:02x})")


def decode_record(data: bytes):
    """Inverse of :func:`encode_record` (raises on trailing garbage)."""
    record, pos = _decode_from(data, 0)
    if pos != len(data):
        raise StorageError(
            f"corrupt checkpoint encoding ({len(data) - pos} trailing bytes)"
        )
    return record


def _varint_size(value: int) -> int:
    return 1 if value < 0x80 else (value.bit_length() + 6) // 7


def encoded_size(value) -> int:
    """Exactly ``len(encode_record(value))``, without building bytes.

    Mirrors :func:`_encode_into` case for case (the equality is pinned
    by a Hypothesis property), so byte accounting never needs the
    canonical bytes themselves — only checksums and torn-write staging
    do.
    """
    cls = value.__class__
    if cls is int:
        prefix = body = (value.bit_length() + 8) // 8
    elif cls is str:
        prefix = body = (
            len(value) if value.isascii() else len(value.encode("utf-8"))
        )
    elif cls is tuple:
        prefix = len(value)
        body = 0
        for item in value:
            body += encoded_size(item)
    elif cls is bool:
        return 2
    elif cls is float:
        return 9
    elif value is None:
        return 1
    else:
        raise StorageError(
            f"value of type {cls.__name__} is not checkpoint-encodable"
        )
    # Tag byte, varint length (or item count), content.
    return (2 if prefix < 0x80 else 1 + _varint_size(prefix)) + body


# ----------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------


#: The wire fields of one control-stack frame (``FrameState`` or any
#: frame-like object), as one C-level getter.
_frame_fields = attrgetter("kind", "index", "remaining", "trip")


def checkpoint_record(checkpoint) -> tuple:
    """The complete durable content of *checkpoint* as a ``full`` record.

    Covers everything recovery depends on (snapshot, clock, cursors,
    numbering) but excludes in-memory-only fields (``blocked_effect``
    holds an AST-bearing effect object; the shared AST is not
    serialised, matching how :class:`ProcessSnapshot` shares it).
    Environment slots appear in insertion order — the order restore
    must rebuild — while the unordered maps (input counters, channel
    cursors) are emitted sorted. The originating statement is carried
    as ``stmt_label`` (its document-order ordinal), not ``stmt_id``:
    node ids come from a process-global counter, so encoding them
    would make durable byte counts depend on unrelated parses earlier
    in the same process.
    """
    snapshot = checkpoint.snapshot
    return (
        "full",
        checkpoint.rank,
        checkpoint.number,
        tuple(snapshot.env.items()),
        tuple(map(_frame_fields, snapshot.frames)),
        snapshot.checkpoint_count,
        tuple(sorted(snapshot.input_counters.items())),
        snapshot.pending_recv,
        tuple(checkpoint.clock.components),
        checkpoint.time,
        tuple(sorted(checkpoint.channel_cursors.items())),
        checkpoint.stmt_label,
        checkpoint.tag,
    )


def delta_encodable(checkpoint, parent) -> bool:
    """Whether *checkpoint* can be stored as a delta against *parent*.

    The delta scheme requires the parent's environment slots to be a
    *prefix* of the child's (forward execution only appends or updates
    slots; the engine re-bases its parent pointer on every rollback, so
    this holds by construction — checked anyway, because storing an
    undecodable delta would be a silent-corruption bug), matching clock
    widths, and no disappearing cursor/input keys.
    """
    if parent.rank != checkpoint.rank:
        return False
    snap = checkpoint.snapshot
    psnap = parent.snapshot
    parent_names = list(psnap.env)
    if list(snap.env)[: len(parent_names)] != parent_names:
        return False
    if len(parent.clock.components) != len(checkpoint.clock.components):
        return False
    if not set(psnap.input_counters) <= set(snap.input_counters):
        return False
    if not set(parent.channel_cursors) <= set(checkpoint.channel_cursors):
        return False
    return True


_MISSING = object()


def _changed(new: dict, old: dict) -> tuple:
    """``(key, value)`` pairs of *new* absent-or-different in *old*.

    Comparison is type-strict (``True`` vs ``1`` counts as a change) so
    reconstruction is byte-identical, not merely ``==``.
    """
    get = old.get
    changes = []
    for key, value in new.items():
        previous = get(key, _MISSING)
        if previous.__class__ is not value.__class__ or previous != value:
            changes.append((key, value))
    return tuple(changes)


def _changed_indices(clock: tuple, parent_clock: tuple) -> list[int]:
    """Ascending indices whose component differs (equal widths), in C."""
    return list(compress(range(len(clock)), map(ne, parent_clock, clock)))


def delta_record(checkpoint, parent) -> tuple:
    """*checkpoint* as a ``delta`` record against *parent*.

    Only call after :func:`delta_encodable` returned True.
    """
    snap = checkpoint.snapshot
    psnap = parent.snapshot
    clock = checkpoint.clock.components
    changed = _changed_indices(clock, parent.clock.components)
    clock_changes = tuple(zip(changed, map(clock.__getitem__, changed)))
    return (
        "delta",
        checkpoint.rank,
        checkpoint.number,
        parent.number,
        _changed(snap.env, psnap.env),
        tuple(map(_frame_fields, snap.frames)),
        snap.checkpoint_count,
        _changed(snap.input_counters, psnap.input_counters),
        snap.pending_recv,
        clock_changes,
        checkpoint.time,
        _changed(checkpoint.channel_cursors, parent.channel_cursors),
        checkpoint.stmt_label,
        checkpoint.tag,
    )


# ----------------------------------------------------------------------
# Structural checkpoint sizes
# ----------------------------------------------------------------------


def _map_sizes(new: dict, old: dict | None) -> tuple[int, int]:
    """Sizes of ``tuple(new.items())`` and of ``_changed(new, old)``.

    Every ``(key, value)`` pair is priced once; the changed subset is
    selected by :func:`_changed`'s type-strict rule. Order does not
    affect size, so the sorted maps need no sort here.
    """
    sizes = [
        2 + encoded_size(key) + encoded_size(value)
        for key, value in new.items()
    ]
    whole = 1 + _varint_size(len(sizes)) + sum(sizes)
    if old is None:
        return whole, 0
    get = old.get
    changed = [
        size
        for size, (key, value) in zip(sizes, new.items())
        if (previous := get(key, _MISSING)).__class__ is not value.__class__
        or previous != value
    ]
    return whole, 1 + _varint_size(len(changed)) + sum(changed)


def _clock_sizes(clock: tuple, parent_clock: tuple | None) -> tuple[int, int]:
    """Sizes of the clock tuple and of its ``(index, value)`` changes.

    The common clock — every component an ``int`` in 0..127, three
    bytes on the wire — is recognised and diffed without a Python-level
    step per component; anything else is summed through
    :func:`encoded_size`, so the result is exact for every clock.
    """
    n = len(clock)
    try:
        # bytes() takes exactly the integers 0..255 and isascii() bounds
        # them below 128; the type set rules out bool (two bytes).
        small = (
            n <= 0x8000
            and bytes(clock).isascii()
            and set(map(type, clock)) <= {int}
        )
    except (TypeError, ValueError):
        small = False
    whole = 1 + _varint_size(n) + (
        3 * n if small else sum(map(encoded_size, clock))
    )
    if parent_clock is None:
        return whole, 0
    indices = _changed_indices(clock, parent_clock)
    count = len(indices)
    if small:
        # Pair header + 3-byte value + 3-byte index, and one byte more
        # for each index past 127 (n <= 0x8000 keeps them two-byte).
        changes = 8 * count + count - bisect_left(indices, 0x80)
    else:
        changes = (
            2 * count
            + sum(map(encoded_size, indices))
            + sum(map(encoded_size, map(clock.__getitem__, indices)))
        )
    return whole, 1 + _varint_size(count) + changes


def checkpoint_sizes(checkpoint, parent=None) -> tuple[int, int | None]:
    """``(full_size, delta_size)`` of *checkpoint*, in one pass, no bytes.

    ``full_size`` is ``len(encode_record(checkpoint_record(checkpoint)))``
    and ``delta_size`` is ``len(encode_record(delta_record(checkpoint,
    parent)))`` (``None`` without a *parent*; only meaningful after
    :func:`delta_encodable`). The two records share eight fields
    verbatim; only the four maps differ, whole vs changed subset.
    """
    snap = checkpoint.snapshot
    shared = encoded_size(tuple(map(_frame_fields, snap.frames)))
    for field in (
        checkpoint.rank,
        checkpoint.number,
        snap.checkpoint_count,
        snap.pending_recv,
        checkpoint.time,
        checkpoint.stmt_label,
        checkpoint.tag,
    ):
        shared += encoded_size(field)
    if parent is None:
        env = inputs = clock = cursors = None
    else:
        env = parent.snapshot.env
        inputs = parent.snapshot.input_counters
        clock = parent.clock.components
        cursors = parent.channel_cursors
    env_whole, env_changed = _map_sizes(snap.env, env)
    inputs_whole, inputs_changed = _map_sizes(snap.input_counters, inputs)
    clock_whole, clock_changed = _clock_sizes(
        checkpoint.clock.components, clock
    )
    cursors_whole, cursors_changed = _map_sizes(
        checkpoint.channel_cursors, cursors
    )
    # Record header (2) + kind string: "full" is 6 bytes, "delta" 7.
    full = (
        8 + shared + env_whole + inputs_whole + clock_whole + cursors_whole
    )
    if parent is None:
        return full, None
    return full, (
        9 + encoded_size(parent.number) + shared
        + env_changed + inputs_changed + clock_changed + cursors_changed
    )


def apply_delta(parent_record: tuple, delta: tuple) -> tuple:
    """Reconstruct a ``full`` record from its parent's full record.

    The output is byte-identical (under :func:`encode_record`) to
    :func:`checkpoint_record` of the original checkpoint: environment
    updates keep the parent's slot order and appends extend it, exactly
    as forward execution would have.
    """
    if parent_record[0] != "full" or delta[0] != "delta":
        raise StorageError("apply_delta needs a full parent and a delta child")
    (
        _kind, rank, number, parent_number, env_changes, frames,
        checkpoint_count, input_changes, pending_recv, clock_changes,
        time, cursor_changes, stmt_id, tag,
    ) = delta
    if parent_record[2] != parent_number or parent_record[1] != rank:
        raise StorageError(
            "delta does not chain to this parent",
            rank=rank, number=number,
        )
    env = dict(parent_record[3])
    for name, value in env_changes:
        env[name] = value
    inputs = dict(parent_record[6])
    for key, value in input_changes:
        inputs[key] = value
    clock = list(parent_record[8])
    for index, value in clock_changes:
        clock[index] = value
    cursors = dict(parent_record[10])
    for key, value in cursor_changes:
        cursors[key] = value
    return (
        "full",
        rank,
        number,
        tuple(env.items()),
        frames,
        checkpoint_count,
        tuple(sorted(inputs.items())),
        pending_recv,
        tuple(clock),
        time,
        tuple(sorted(cursors.items())),
        stmt_id,
        tag,
    )
