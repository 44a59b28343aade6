"""Canonical binary encoding of checkpoint content.

One stable serialisation shared by every consumer of checkpoint bytes —
write-time checksums, replication quorums, torn-write staging, and the
delta encoder — replacing the earlier ``repr()`` hack, which was
neither self-describing nor type-faithful (``repr`` cannot distinguish
re-parsable equal values, and its output was never decodable). Byte
accounting does not consume bytes: :func:`encoded_size` and
:func:`checkpoint_sizes` give the exact length of the canonical form
structurally, so a fault-free run never builds it. Sizes are priced
when something reads them: a :class:`SizeLedger` per rank prices each
commit from its parent where the delta decision or a ``commit`` event
needs it; otherwise :func:`full_bytes_total` prices a whole history
at once, in bulk, when its total is read.

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
  always stored whole. Applying a delta to its parent's (recursively
  reconstructed) full record gives bytes identical to encoding the
  checkpoint directly, which is what lets checksums be defined over
  *reconstructed* content. A run never decodes a delta: it keeps the
  checkpoint object, so the reconstruction is the test oracle
  ``tests/runtime/delta_oracle.py``.
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, is_, is_not, ne

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
    do. One loop prices a tuple's items in place and recurses only for
    a nested tuple; a scalar is priced as its own single item.
    """
    if value.__class__ is tuple:
        total = 2 if len(value) < 0x80 else 1 + _varint_size(len(value))
    else:
        value = (value,)
        total = 0
    for item in value:
        cls = item.__class__
        if cls is int:
            length = (item.bit_length() + 8) // 8
        elif cls is str:
            length = (
                len(item) if item.isascii() else len(item.encode("utf-8"))
            )
        elif cls is tuple:
            total += encoded_size(item)
            continue
        elif cls is bool:
            total += 2
            continue
        elif cls is float:
            total += 9
            continue
        elif item is None:
            total += 1
            continue
        else:
            raise StorageError(
                f"value of type {cls.__name__} is not checkpoint-encodable"
            )
        # Tag byte, varint length, content.
        total += (2 if length < 0x80 else 1 + _varint_size(length)) + length
    return total


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
    as ``stmt_label`` (its ordinal among the program's checkpoint
    statements), not as ``stmt_id`` (its position among all nodes).
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


_MISSING = object()


def _differs(a, b) -> bool:
    """Type-strict ``!=``, into tuples too: ``True`` vs ``1`` differ, and
    so do ``(True, 0)`` vs ``(1, 0)``."""
    if a.__class__ is not b.__class__ or a != b:
        return True
    return a.__class__ is tuple and any(map(_differs, a, b))


def _changed(new: dict, old: dict) -> tuple:
    """``(key, value)`` pairs of *new* absent-or-different in *old*.

    Comparison is type-strict (:func:`_differs`) so reconstruction is
    byte-identical, not merely ``==``.
    """
    get = old.get
    return tuple(
        (key, value) for key, value in new.items()
        if _differs(get(key, _MISSING), value)
    )


def _changed_indices(clock: tuple, parent_clock: tuple) -> list[int]:
    """Ascending indices whose component differs (equal widths), in C."""
    return list(compress(range(len(clock)), map(ne, parent_clock, clock)))


def delta_record(checkpoint, parent) -> tuple:
    """*checkpoint* as a ``delta`` record against *parent*.

    Only call when :func:`checkpoint_sizes` prices a delta for the
    pair.
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

_NO_MAP: dict = {}
_STALE = object()

#: ``encoded_size`` of an int by its bit length, for every length whose
#: byte count fits a one-byte varint.
_INT_SIZES = tuple(2 + (bits + 8) // 8 for bits in range(1016))


def _sized(value) -> int:
    """:func:`encoded_size` of a value an int lookup did not price: a
    pair of ints (a channel cursor) by two lookups, anything else by
    the call."""
    if value.__class__ is tuple and len(value) == 2:
        first, second = value
        if first.__class__ is int and second.__class__ is int:
            first, second = first.bit_length(), second.bit_length()
            if first < 1016 and second < 1016:
                return 2 + _INT_SIZES[first] + _INT_SIZES[second]
    return encoded_size(value)


class SizeLedger:
    """Structural sizes of checkpoints, each priced from the one before.

    The ledger mirrors one checkpoint (:attr:`entry`): per map — env
    slots, input counters, channel cursors — the running sum of its
    ``(key, value)`` pair sizes. A small clock is diffed as one integer.
    :meth:`price` compares a checkpoint with that entry and prices only
    the changed pairs (the new value in, the old one out), which gives
    the full record's size (the sums), the delta record's (the changed
    pairs) and whether a key disappeared, in one pass per map. An
    exact int, or a pair of them as cursors are, is priced by lookups
    in a bit-length table; any other value goes through
    :func:`encoded_size`.
    Handed a parent other than the mirrored entry — first commit,
    restore, re-base, a write that never landed — it rebuilds the
    mirror from that parent, so nothing ever has to reset a ledger.
    *key_sizes* memoises pair-header-plus-key sizes; the ledgers of one
    simulation share it.
    """

    __slots__ = ("entry", "_key_sizes", "_bodies")

    def __init__(self, key_sizes: dict | None = None) -> None:
        self.entry = None
        self._key_sizes = {} if key_sizes is None else key_sizes
        self._bodies = [0, 0, 0]

    def price(
        self, checkpoint, parent=None, delta: bool = True
    ) -> tuple[int, int | None]:
        """``(full_size, delta_size)`` of *checkpoint*, without bytes.

        Exactly ``len(encode_record(checkpoint_record(checkpoint)))``
        and ``len(encode_record(delta_record(checkpoint, parent)))``;
        the latter is ``None`` when there is no such record (no
        *parent*, or a pair the delta scheme refuses) or when
        *delta* is false: then the pass stops after the sums.
        Afterwards the ledger mirrors *checkpoint*.
        """
        if self.entry is not parent:
            self.__init__(self._key_sizes)
            if parent is not None:
                self.price(parent)
        # A pass that raises (an unencodable value) leaves the sums
        # half-updated: match no parent until one has completed.
        self.entry = _STALE
        snap = checkpoint.snapshot
        env = snap.env
        if parent is None:
            old_env = old_inputs = old_cursors = _NO_MAP
        else:
            old_env = parent.snapshot.env
            old_inputs = parent.snapshot.input_counters
            old_cursors = parent.channel_cursors
        env_whole, env_changed = self._map(0, env, old_env)
        inputs_whole, inputs_changed = self._map(
            1, snap.input_counters, old_inputs
        )
        cursors_whole, cursors_changed = self._map(
            2, checkpoint.channel_cursors, old_cursors
        )
        # A small clock (every component an int in 0..127) is three
        # bytes a component and is diffed in its packed form;
        # n <= 0x8000 keeps every index at most two bytes long.
        clock = checkpoint.clock
        n = len(clock)
        bits = clock.packed if n <= 0x8000 else None
        small = bits is not None
        # The eight fields both records carry verbatim, priced as one
        # flat tuple: its own header comes off, those of the frames
        # tuple and of its four-field items go on.
        frames = snap.frames
        flat = (
            checkpoint.rank, checkpoint.number, snap.checkpoint_count,
            snap.pending_recv, checkpoint.time, checkpoint.stmt_label,
            checkpoint.tag, *chain.from_iterable(map(_frame_fields, frames)),
        )
        shared = (
            encoded_size(flat) - _varint_size(len(flat))
            + _varint_size(len(frames)) + 2 * len(frames)
        )
        self.entry = checkpoint
        # Record header (2) + kind string: "full" is 6 bytes, "delta" 7.
        full = (
            8 + shared + env_whole + inputs_whole + cursors_whole
            + 1 + _varint_size(n)
            + (3 * n if small else sum(map(encoded_size, clock.components)))
        )
        if (
            not delta
            or parent is None
            or env_changed is None
            or inputs_changed is None
            or cursors_changed is None
            or len(parent.clock) != n
            or parent.rank != checkpoint.rank
            # No slot disappeared, so this is the prefix-order check.
            or not all(map(eq, old_env, env))
        ):
            return full, None
        old_bits = parent.clock.packed if small else None
        if old_bits is not None:
            # Small clocks differ where their XOR has a non-zero byte:
            # pair header + 3-byte value + 3-byte index each, and one
            # byte more for each index past 127.
            same = (bits ^ old_bits).to_bytes(n, "big")
            count = n - same.count(0)
            clock_changed = 8 * count + (
                n - 128 - same.count(0, 128) if n > 128 else 0
            )
        else:
            parts = clock.components
            indices = _changed_indices(parts, parent.clock.components)
            count = len(indices)
            clock_changed = 2 * count + sum(map(encoded_size, indices)) + sum(
                map(encoded_size, map(parts.__getitem__, indices))
            )
        return full, (
            9 + encoded_size(parent.number) + shared
            + env_changed + inputs_changed + cursors_changed
            + 1 + _varint_size(count) + clock_changed
        )

    def _map(self, slot: int, new: dict, old: dict) -> tuple[int, int | None]:
        """Sizes of ``tuple(new.items())`` and of ``_changed(new, old)``.

        *old* is the mirrored map; the second size is ``None`` when a
        key of it is gone from *new*. Order does not affect size, so
        the sorted maps need no sort here.
        """
        if not (new or old):
            return 2, 2
        key_sizes = self._key_sizes
        table = _INT_SIZES
        get = old.get
        body = self._bodies[slot]
        changed = count = added = 0
        for key, value in new.items():
            previous = get(key, _MISSING)
            cls = value.__class__
            # Type-strict: True vs 1, or (True, 0) vs (1, 0), is a change.
            if (
                previous == value
                and previous.__class__ is cls
                and (cls is not tuple or not _differs(previous, value))
            ):
                continue
            head = key_sizes.get(key)
            if head is None:
                head = key_sizes[key] = 2 + encoded_size(key)
            # An int (every env slot and input counter the engine
            # stores) is one lookup in the size table.
            if cls is int and (bits := value.bit_length()) < 1016:
                size = table[bits]
            else:
                size = _sized(value)
            if previous is _MISSING:
                added += 1
                body += head + size
            elif previous.__class__ is int and (
                (bits := previous.bit_length()) < 1016
            ):
                body += size - table[bits]
            else:
                body += size - _sized(previous)
            changed += head + size
            count += 1
        if len(new) == len(old) + added:
            changed += 2 if count < 0x80 else 1 + _varint_size(count)
        else:
            for key in old.keys() - new.keys():
                body -= key_sizes[key] + encoded_size(old[key])
            changed = None
        self._bodies[slot] = body
        count = len(new)
        return (2 if count < 0x80 else 1 + _varint_size(count)) + body, changed


def checkpoint_sizes(checkpoint, parent=None) -> tuple[int, int | None]:
    """:meth:`SizeLedger.price` over a fresh ledger: exact, and cold.

    The lazy path of :attr:`StoredCheckpoint.full_bytes` /
    ``payload_bytes`` and the reference the engine's ledgers are pinned
    against.
    """
    return SizeLedger().price(checkpoint, parent)


#: Checkpoints one bulk pass prices together: enough to amortise its
#: passes, few enough that the columns it flattens stay small.
BULK_CHUNK = 256
_FIXED_SIZES = {float: 9, bool: 2, type(None): 1}
#: ``_INT_SIZES`` up to 255 bits, as a ``bytes.translate`` table.
_SMALL_INT_SIZES = bytes(_INT_SIZES[:256])


class _SizeMemo(dict):
    """:func:`encoded_size` by value (by ``==``), priced on first use."""

    def __missing__(self, value) -> int:
        size = self[value] = encoded_size(value)
        return size


def _column_size(column: list, memo: _SizeMemo) -> int:
    """Σ :func:`encoded_size` over *column*, a C pass or two per class:
    exact ints by bit length, strings through *memo*, fixed sizes by
    count; an int of 256 bits or more, or a tuple, one by one."""
    classes = set(map(type, column))
    total = 0
    for cls in classes:
        values = column if len(classes) == 1 else list(
            compress(column, map(is_, map(type, column), repeat(cls)))
        )
        if cls in _FIXED_SIZES:
            total += _FIXED_SIZES[cls] * len(values)
        elif cls is str:
            total += sum(map(memo.__getitem__, values))
        elif cls is int and -(2**255) < min(values) and max(values) < 2**255:
            bits = bytes(map(int.bit_length, values))
            total += sum(bits.translate(_SMALL_INT_SIZES))
        else:
            total += sum(map(encoded_size, values))
    return total


def full_bytes_total(checkpoints) -> int:
    """Σ ``len(encode_record(checkpoint_record(c)))`` over *checkpoints*.

    The bulk counterpart of ``checkpoint_sizes(c)[0]``: rather than one
    Python-level walk per entry, each field is priced as a column of
    :data:`BULK_CHUNK` entries by C-level ``map``/``sum`` passes. Map
    keys and strings are priced once per distinct value (keys by
    ``==``, as :class:`SizeLedger` memoises them) and a small clock by
    its width; cursor pairs and any other clock join the int column.
    """
    memo = _SizeMemo()
    entries = iter(checkpoints)
    total = 0
    while chunk := list(islice(entries, BULK_CHUNK)):
        snaps = list(map(attrgetter("snapshot"), chunk))
        frames = list(map(attrgetter("frames"), snaps))
        flat_frames = list(chain.from_iterable(frames))
        clocks = list(map(attrgetter("clock"), chunk))
        widths = list(map(len, clocks))
        packed = list(map(attrgetter("packed"), clocks))
        maps = [
            *map(attrgetter("env"), snaps),
            *map(attrgetter("input_counters"), snaps),
        ]
        # Every field the engine fills with an int, as one column.
        ints = [
            *chain.from_iterable(map(dict.values, maps)),
            *chain.from_iterable(map(attrgetter("rank", "number"), chunk)),
            *map(attrgetter("checkpoint_count"), snaps),
            *chain.from_iterable(
                map(attrgetter("index", "remaining", "trip"), flat_frames)
            ),
        ]
        cursors = list(map(attrgetter("channel_cursors"), chunk))
        maps += cursors
        tuples = [*maps, *frames]
        # Cursor values are (sent, delivered) pairs: their items join
        # the int column.
        pairs = list(chain.from_iterable(map(dict.values, cursors)))
        if set(map(type, pairs)) <= {tuple}:
            tuples += pairs
            ints += chain.from_iterable(pairs)
        else:
            total += sum(map(encoded_size, pairs))
        # The record's header and "full"; a tag and count for each map,
        # pair, frame stack, frame and clock; a pair header and key per
        # map entry; three bytes a component of a small clock.
        lengths = Counter([*map(len, tuples), *widths])
        keys = list(chain.from_iterable(maps))
        total += (
            8 * len(chunk) + 2 * len(flat_frames) + 2 * len(keys)
            + sum(k * (1 + _varint_size(n)) for n, k in lengths.items())
            + sum(map(memo.__getitem__, keys))
            + 3 * sum(compress(widths, map(is_not, packed, repeat(None))))
        )
        ints += chain.from_iterable(
            clock.components for clock, bits in zip(clocks, packed)
            if bits is None
        )
        columns = (
            ints, list(map(attrgetter("time"), chunk)),
            list(map(attrgetter("stmt_label"), chunk)),
            [*map(attrgetter("tag"), chunk),
             *map(attrgetter("kind"), flat_frames)],
            list(map(attrgetter("pending_recv"), snaps)),
        )
        total += sum(_column_size(column, memo) for column in columns)
    return total


def checkpoint_payload(checkpoint) -> bytes:
    """Canonical byte serialisation of a checkpoint's full content.

    The canonical-encoding bytes of :func:`checkpoint_record` — the
    single serialisation shared by checksums, replication, torn-write
    staging and the delta encoder (byte accounting uses its structural
    size, not the bytes). For a delta entry this is the
    *reconstructed* content: byte-identical to applying the delta
    chain from the nearest full ancestor, which is why one checksum
    definition covers both payload kinds.
    """
    return encode_record(checkpoint_record(checkpoint))


def stored_payload(checkpoint) -> bytes:
    """The durable wire form: delta bytes for delta entries, else full."""
    if checkpoint.payload_kind != "delta":
        return checkpoint_payload(checkpoint)
    return encode_record(delta_record(checkpoint, checkpoint.parent))


def checkpoint_checksum(checkpoint) -> int:
    """CRC-32 over the (reconstructed) full content of *checkpoint*."""
    return zlib.crc32(checkpoint_payload(checkpoint))
