"""The per-rank size ledger: exact on every step, and never a whole pass.

``SizeLedger.price`` must return what the encoder would — the length of
the full record and of the delta record against the parent it is handed
(``None`` where no delta exists) — whatever came before: a long chain of
commits, a restore to an older entry, a write that never landed, a
failed pass. The oracle is the encoder itself plus the list-and-set
statement of the delta-encodability rule the ledger replaced. A clock's
``small`` fact must be sound along every ``zero/tick/receive``
chain, and a fault-free delta-mode run must price only what changed. A
full-mode run prices nothing at commit: ``full_bytes_total`` prices its
entries once, in bulk, and must equal the encoder over any list of
checkpoints, however unusual their values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.encoding
from repro.causality.vector_clock import VectorClock
from repro.errors import StorageError
from repro.lang.programs import stencil_halo
from repro.obs import Observability
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.encoding import (
    BULK_CHUNK,
    SizeLedger,
    _changed,
    checkpoint_record,
    checkpoint_sizes,
    delta_record,
    encode_record,
    full_bytes_total,
)
from repro.runtime.config import CHECKPOINT_MODES
from repro.runtime.effects import FrameState, ProcessSnapshot
from repro.runtime.storage import StoredCheckpoint

from .delta_oracle import apply_delta

DELTA_MODES = [mode for mode in CHECKPOINT_MODES if mode != "full"]


def encodable_oracle(checkpoint, parent) -> bool:
    """The delta-encodability rule, as lists and sets (the old code)."""
    if parent.rank != checkpoint.rank:
        return False
    snap, psnap = checkpoint.snapshot, parent.snapshot
    parent_names = list(psnap.env)
    if list(snap.env)[: len(parent_names)] != parent_names:
        return False
    if len(parent.clock.components) != len(checkpoint.clock.components):
        return False
    if not set(psnap.input_counters) <= set(snap.input_counters):
        return False
    return set(parent.channel_cursors) <= set(checkpoint.channel_cursors)


def encoded_sizes(checkpoint, parent):
    """``(full, delta)`` by building both records and measuring them."""
    full = len(encode_record(checkpoint_record(checkpoint)))
    if parent is None or not encodable_oracle(checkpoint, parent):
        return full, None
    return full, len(encode_record(delta_record(checkpoint, parent)))


# Keys keep their production types (names, labels, ``(src, dst, lane)``):
# a dict cannot tell ``1`` from ``True`` as a key, so neither can a delta.
names = st.sampled_from(["x", "y", "i", "left", "é" * 70, "n" * 130])
labels = st.sampled_from(["in", "seed", "x"])
channels = st.tuples(
    st.integers(0, 200), st.integers(0, 3), st.sampled_from(["p2p", "ctl"])
)
values = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from([127, 128, 2**2040, -(2**15), 1.0, 0.5, None, "s", ""]),
    st.tuples(st.integers(0, 300), st.booleans()),
)
components = st.one_of(
    st.integers(0, 127),
    st.integers(0, 127),
    st.sampled_from([128, 255, 256, 2**70, -1, True, False]),
)
frames = st.lists(
    st.builds(
        FrameState,
        kind=st.sampled_from(["block", "while", "for"]),
        index=st.one_of(st.integers(0, 300), st.booleans()),
        remaining=st.integers(-1, 2**16),
        trip=st.integers(0, 130),
    ),
    max_size=3,
).map(tuple)


@st.composite
def edited(draw, base: dict, keys):
    """*base* with slots left alone, changed, appended and removed."""
    result = {}
    for key, value in base.items():
        action = draw(st.sampled_from("kkkcr"))
        if action == "k":
            result[key] = value
        elif action == "c":
            # Includes the type-only change (1 -> True) and no change.
            result[key] = draw(st.one_of(values, st.just(value == 1)))
    for key in draw(st.lists(keys, max_size=2)):
        result.setdefault(key, draw(values))
    if draw(st.integers(0, 9)) == 0:
        result = dict(reversed(result.items()))
    return result


@st.composite
def next_clock(draw, base: tuple):
    parts = list(base)
    # The last index as often as all others: past 127 on a wide clock.
    positions = st.one_of(st.integers(0, len(parts) - 1), st.just(-1))
    for index in draw(st.lists(positions, max_size=4)):
        parts[index] = draw(components)
    if draw(st.integers(0, 11)) == 0:
        parts = parts[: draw(st.integers(1, len(parts)))]
    return VectorClock(components=tuple(parts))


def make(rank, number, env, inputs, cursors, clock, frame_stack, pending, time):
    return StoredCheckpoint(
        rank=rank,
        number=number,
        snapshot=ProcessSnapshot(
            env=env,
            frames=frame_stack,
            checkpoint_count=number,
            input_counters=inputs,
            pending_recv=pending,
        ),
        clock=clock,
        time=time,
        channel_cursors=cursors,
        stmt_label=None if number % 3 == 0 else number % 2,
        tag="initial" if number == 0 else "app",
    )


@st.composite
def successor(draw, base, number):
    return make(
        # A foreign rank now and then: never delta-encodable.
        base.rank if draw(st.integers(0, 15)) else base.rank + 1,
        number,
        draw(edited(base.snapshot.env, names)),
        draw(edited(base.snapshot.input_counters, labels)),
        draw(edited(base.channel_cursors, channels)),
        draw(next_clock(base.clock.components)),
        draw(frames),
        draw(st.sampled_from([None, "x", "left"])),
        draw(st.sampled_from([0, 1.5, 2**40, 3.25])),
    )


class TestLedgerMatchesTheEncoder:
    @given(data=st.data(), width=st.sampled_from([1, 3, 140]))
    @settings(max_examples=60, deadline=None)
    def test_every_step_of_a_commit_sequence(self, data, width):
        ledger = SizeLedger()
        published = [
            make(
                0, 0, data.draw(edited({}, names)), {}, {},
                VectorClock.zero(width).tick(0), (), None, 0,
            )
        ]
        assert ledger.price(published[0]) == encoded_sizes(
            published[0], None
        )
        for number in range(1, data.draw(st.integers(1, 6)) + 1):
            # The parent the engine would hand over: the latest
            # published entry, an older one after a restore, or none.
            choice = data.draw(st.sampled_from("llllon"))
            if choice == "o":
                del published[data.draw(st.integers(1, len(published))):]
            parent = None if choice == "n" else published[-1]
            child = data.draw(successor(published[-1], number))
            expected = encoded_sizes(child, parent)
            assert ledger.price(child, parent) == expected
            # The public exact function agrees.
            assert checkpoint_sizes(child, parent) == expected
            # A write that never landed leaves the old parent in place.
            if data.draw(st.integers(0, 4)):
                published.append(child)

    def test_many_frames_cross_the_count_varint(self):
        stack = tuple(
            FrameState("for", index=i, remaining=2**i, trip=i)
            for i in range(130)
        )
        clock = VectorClock.zero(2)
        parent = make(0, 1, {"x": 1}, {}, {}, clock, stack[:3], None, 1.0)
        child = make(0, 2, {"x": 2}, {}, {}, clock.tick(0), stack, "x", 2.0)
        assert checkpoint_sizes(child, parent) == encoded_sizes(child, parent)

    def test_small_clocks_count_their_indices_past_127(self):
        base = VectorClock.zero(200)
        parent = make(0, 1, {}, {}, {}, base, (), None, 1.0)
        child = make(
            0, 2, {}, {}, {}, base.tick(5).tick(150).tick(199).tick(5), (),
            None, 2.0,
        )
        assert child.clock.small
        assert checkpoint_sizes(child, parent) == encoded_sizes(child, parent)

    def test_indices_past_two_bytes_leave_the_fast_path(self):
        wide = VectorClock.zero(0x8001)
        assert wide.small
        parts = list(wide.components)
        parts[5] = parts[200] = parts[0x8000] = 9
        parent = make(0, 1, {}, {}, {}, wide, (), None, 1.0)
        child = make(
            0, 2, {}, {}, {}, VectorClock(components=tuple(parts)), (),
            None, 2.0,
        )
        assert checkpoint_sizes(child, parent) == encoded_sizes(child, parent)

    def test_failed_pass_is_not_trusted(self):
        clock = VectorClock.zero(2)
        first = make(0, 1, {"x": 1}, {}, {}, clock, (), None, 1.0)
        broken = make(
            0, 2, {"x": 2**40}, {}, {(0, 1, "p2p"): [1]}, clock, (), None, 2.0
        )
        second = make(0, 2, {"x": 7}, {}, {}, clock, (), None, 2.0)
        ledger = SizeLedger()
        ledger.price(first)
        with pytest.raises(StorageError):
            ledger.price(broken, first)
        # The env sum had moved on before the cursors raised; the next
        # pass rebuilds it from the parent instead of trusting it.
        assert ledger.price(second, first) == encoded_sizes(second, first)


# Ints and int pairs are priced from the ledger's size table; flips to
# and from ``bool`` (``1`` and ``True`` are ``==``), other types, ints
# either side of the table's end and dropped keys must leave it exact.
ints = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**40), 2**40),
    st.sampled_from([127, 128, -128, -129, 2**1015 - 1, 2**1015,
                     -(2**1015), 2**2040]),
)
odd = st.sampled_from([True, False, 1.0, 0.5, None, "s"])
many_names = st.sampled_from([f"v{i}" for i in range(12)] + ["é" * 70])


def flipped(value):
    """*value* as another type: ``bool`` <-> ``int``, else back to 1."""
    if value.__class__ is tuple:
        return (flipped(value[0]), *value[1:])
    if value.__class__ is bool:
        return int(value)
    if value.__class__ is int:
        return bool(value % 2)
    return 1


@st.composite
def int_heavy(draw, base, keys, pairs, grow=3):
    def fresh():
        return draw(st.tuples(ints, ints) if pairs else ints)

    result = {
        key: fresh() if draw(st.booleans()) else value
        for key, value in base.items()
    }
    for key in draw(st.lists(keys, max_size=grow)):
        result.setdefault(key, fresh())
    mode = draw(st.sampled_from("iiifod"))
    if result and mode != "i":
        key = draw(st.sampled_from(sorted(result, key=repr)))
        if mode == "d":
            del result[key]
        elif mode == "f":
            result[key] = flipped(result[key])
        else:
            result[key] = draw(odd)
    return result


class TestTablePath:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_step_of_an_int_heavy_commit_sequence(self, data):
        ledger = SizeLedger()
        clock = VectorClock.zero(3)
        published = [
            make(
                0, 0, data.draw(int_heavy({}, many_names, False, grow=12)),
                {}, data.draw(int_heavy({}, channels, True, grow=10)),
                clock, (), None, 0,
            )
        ]
        assert ledger.price(published[0]) == encoded_sizes(
            published[0], None
        )
        for number in range(1, data.draw(st.integers(1, 8)) + 1):
            choice = data.draw(st.sampled_from("lllllon"))
            if choice == "o":
                del published[data.draw(st.integers(1, len(published))):]
            parent = None if choice == "n" else published[-1]
            base = published[-1]
            clock = clock.tick(number % 3)
            child = make(
                0, number,
                data.draw(int_heavy(base.snapshot.env, many_names, False)),
                data.draw(int_heavy(base.snapshot.input_counters, labels,
                                    False)),
                data.draw(int_heavy(base.channel_cursors, channels, True)),
                clock, (), None, float(number),
            )
            expected = encoded_sizes(child, parent)
            assert ledger.price(child, parent) == expected
            if data.draw(st.integers(0, 5)):
                published.append(child)


    def test_a_bool_inside_a_pair_is_a_change(self):
        # (True, 0) == (1, 0), yet they encode differently: the delta
        # must carry the pair, and both sizes must see it.
        clock = VectorClock.zero(2)
        key = (0, 1, "p2p")
        parent = make(0, 1, {}, {}, {key: (1, 0)}, clock, (), None, 1.0)
        child = make(0, 2, {}, {}, {key: (True, 0)}, clock, (), None, 2.0)
        assert _changed(child.channel_cursors, parent.channel_cursors) == (
            (key, (True, 0)),
        )
        rebuilt = apply_delta(
            checkpoint_record(parent), delta_record(child, parent)
        )
        assert encode_record(rebuilt) == encode_record(
            checkpoint_record(child)
        )
        ledger = SizeLedger()
        ledger.price(parent)
        assert ledger.price(child, parent) == encoded_sizes(child, parent)


class TestSmallClockFact:
    @staticmethod
    def holds(clock):
        return all(
            type(part) is int and 0 <= part < 128 for part in clock.components
        )

    @given(
        width=st.integers(1, 5),
        seeds=st.lists(st.lists(components, min_size=5, max_size=5), max_size=2),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["tick", "receive"]),
                st.integers(0, 4), st.integers(0, 7), st.integers(0, 7),
            ),
            max_size=160,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_implies_every_component_is_a_small_int(
        self, width, seeds, steps
    ):
        pool = [VectorClock.zero(width)] + [
            VectorClock(components=tuple(seed[:width])) for seed in seeds
        ]
        for op, rank, left, right in steps:
            a, b = pool[left % len(pool)], pool[right % len(pool)]
            if op == "tick":
                result = a.tick(rank % width)
            else:
                result = a.receive(b, rank % width)
            pool.append(result)
            # Whether the clock was built packed or is scanned now,
            # the fact is exact, and the packed form is its components.
            assert result.small == self.holds(result)
            if result.small:
                assert result.packed == int.from_bytes(
                    bytes(result.components), "big"
                )
            else:
                assert result.packed is None

    def test_engine_clocks_stay_small_up_to_127(self):
        clock = VectorClock.zero(3)
        for _ in range(127):
            assert clock.small
            clock = clock.tick(1).receive(clock, 0).receive(clock.tick(2), 2)
        assert clock.small and max(clock.components) == 127
        assert not clock.tick(1).small and not clock.receive(clock, 0).small

    def test_equality_and_hash_ignore_the_fact(self):
        known, scanned = VectorClock.zero(2), VectorClock(components=(0, 0))
        assert known == scanned and hash(known) == hash(scanned)
        assert scanned.small and known == scanned


class TestCommitPricesOnlyWhatChanged:
    def run_counting(self, monkeypatch, mode, observer=None):
        """The run, its :func:`encoded_size` calls and its size-table
        lookups (one per int the table prices)."""
        calls, lookups = [], []
        real = repro.runtime.encoding.encoded_size

        def counting(value):
            calls.append(value)
            return real(value)

        class CountingTable(tuple):
            def __getitem__(self, bits):
                lookups.append(bits)
                return tuple.__getitem__(self, bits)

        monkeypatch.setattr(repro.runtime.encoding, "encoded_size", counting)
        monkeypatch.setattr(
            repro.runtime.encoding, "_INT_SIZES",
            CountingTable(repro.runtime.encoding._INT_SIZES),
        )
        result = Simulation(
            stencil_halo(), 8, params={"steps": 6},
            protocol=ApplicationDrivenProtocol(), checkpoint_mode=mode,
            observer=observer,
        ).run()
        monkeypatch.undo()
        assert result.stats.completed
        return result, len(calls), len(lookups)

    def test_pricing_calls_are_bounded_by_the_changes(self, monkeypatch):
        result, calls, lookups = self.run_counting(monkeypatch, "pruned+delta")

        def ints(value):
            return len(value) if value.__class__ is tuple else 1

        commits = changed = whole = 0
        keys = set()
        for rank in range(8):
            previous = None
            for entry in result.storage.history(rank):
                maps = (
                    (entry.snapshot.env, "env"),
                    (entry.snapshot.input_counters, "input_counters"),
                    (entry.channel_cursors, None),
                )
                for new, field in maps:
                    if previous is None:
                        old = {}
                    elif field is None:
                        old = previous.channel_cursors
                    else:
                        old = getattr(previous.snapshot, field)
                    for key, value in _changed(new, old):
                        changed += ints(value) + (
                            ints(old[key]) if key in old else 0
                        )
                    whole += sum(1 + ints(value) for value in new.values())
                    keys.update(new)
                commits += 1
                previous = entry
        # Every map here holds ints or int pairs: per changed pair the
        # table prices each int of its new value and of the one it
        # replaces, and nothing else does. Per commit one call prices
        # the shared fields and one the parent's number; per distinct
        # key, once per simulation, one prices the key. Clocks (n = 8,
        # small) cost no pricing at all.
        assert commits > 40 and 0 < changed < whole
        assert 0 < lookups <= changed
        assert calls <= 2 * commits + len(keys)
        # A whole pass would price every pair's key and ints, and the
        # eight clock components, at every commit.
        assert calls + lookups < (whole + 8 * commits) / 2

    @pytest.mark.parametrize("mode", DELTA_MODES)
    def test_every_mode_sizes_its_entries_at_commit(self, monkeypatch, mode):
        result, _, _ = self.run_counting(monkeypatch, mode)

        def no_sizing(value):
            raise AssertionError("accounting re-derived a size")

        monkeypatch.setattr(repro.runtime.encoding, "encoded_size", no_sizing)
        assert result.storage.total_bytes() >= result.stats.stored_bytes > 0
        for rank in range(8):
            for entry in result.storage.history(rank):
                assert entry.payload_bytes <= entry.full_bytes

    def test_full_mode_prices_once_in_bulk_at_run_end(self, monkeypatch):
        result, calls, lookups = self.run_counting(monkeypatch, "full")
        entries = [
            entry for rank in range(8)
            for entry in result.storage.history(rank)
        ]
        keys, strings = set(), set()
        for entry in entries:
            snap = entry.snapshot
            for values in (snap.env, snap.input_counters):
                assert {type(value) for value in values.values()} <= {int}
            assert all(
                type(a) is int and type(b) is int
                for a, b in entry.channel_cursors.values()
            )
            keys.update(snap.env, snap.input_counters, entry.channel_cursors)
            scalars = (entry.tag, snap.pending_recv,
                       *(frame.kind for frame in snap.frames))
            strings.update(v for v in scalars if type(v) is str)
        # No decision at commit read a size, and the run-end sum cached
        # none; no ledger priced anything.
        assert not any("_full_bytes" in entry.__dict__ for entry in entries)
        assert lookups == 0
        # The one bulk pass priced each distinct key and string once and
        # every int, float and None without a call.
        assert calls == len(keys | strings)
        exact = sum(checkpoint_sizes(entry)[0] for entry in entries)
        assert result.stats.stored_bytes == exact
        assert result.storage.total_bytes() == exact
        assert not any("_full_bytes" in entry.__dict__ for entry in entries)


    def test_observed_full_commit_stops_after_the_sums(self, monkeypatch):
        """A ``commit`` event reads the entry's size, so an observed
        ``full`` run prices every commit through its ledger — but no
        delta record, which nothing in that mode reads."""
        result, calls, _ = self.run_counting(
            monkeypatch, "full", observer=Observability().bus
        )
        entries = [
            entry for rank in range(8)
            for entry in result.storage.history(rank)
        ]
        keys = set()
        for entry in entries:
            snap = entry.snapshot
            keys.update(snap.env, snap.input_counters, entry.channel_cursors)
        # Per commit one call prices the shared fields; per distinct
        # key, once per simulation, one prices the key. Pricing the
        # delta too would add one more per non-initial commit (148).
        assert (len(entries), len(keys)) == (56, 44)
        assert calls == len(entries) + len(keys) == 100
        exact = sum(checkpoint_sizes(entry)[0] for entry in entries)
        assert result.stats.stored_bytes == exact == 26433


# The bulk pricer's cases: every class the encoder takes, in every field
# of the full record, and ints either side of its 255-bit table.
wild = st.sampled_from([
    True, False, -1, -128, -129, 2**255 - 1, 2**255, -(2**255), 2**1015,
    -(2**1016), "", "s", "é" * 70, "ü" * 130, None, 0.5, -1.0,
    (1, (True, None)), ((), "é"),
])
mostly_ints = st.one_of(st.integers(-300, 300), wild)
cursor_values = st.one_of(
    st.tuples(st.integers(0, 300), st.integers(0, 300)),
    st.sampled_from([(True, 2**70), (1, 2, 3), (7,), None, 5, ("a", 1.5)]),
)


def env_key(i):
    return f"{'é' * (i % 2)}v{i}"


def label_key(i):
    return f"in{i}"


def channel_key(i):
    return (i, i % 4, "p2p")


@st.composite
def sized_maps(draw, key_of, values):
    """Maps of 0 to 130 entries keyed by ``key_of(position)``, cycling
    through a few drawn values (a long map costs no more draws)."""
    drawn = draw(st.lists(values, min_size=1, max_size=4))
    return {
        key_of(i): drawn[i % len(drawn)]
        for i in range(draw(st.sampled_from([0, 2, 5, 130])))
    }


# Built once: a strategy made inside a draw is labelled anew each time.
env_maps = sized_maps(env_key, mostly_ints)
label_maps = sized_maps(label_key, mostly_ints)
cursor_maps = sized_maps(channel_key, cursor_values)
frame_fields = st.sampled_from([0, 1, 300, 2**16, -1, True, None])
odd_frames = st.lists(
    st.tuples(
        st.sampled_from(["block", "while", "ü", None]),
        frame_fields, frame_fields, frame_fields,
    ).map(lambda f: FrameState(f[0], index=f[1], remaining=f[2], trip=f[3])),
    max_size=3,
).map(tuple)
clock_edits = st.lists(st.tuples(st.integers(0, 129), components), max_size=4)


@st.composite
def wild_checkpoints(draw):
    parts = [0] * draw(st.sampled_from([1, 4, 130]))
    for index, value in draw(clock_edits):
        parts[index % len(parts)] = value
    return StoredCheckpoint(
        rank=draw(mostly_ints),
        number=draw(mostly_ints),
        snapshot=ProcessSnapshot(
            env=draw(env_maps),
            frames=draw(odd_frames),
            checkpoint_count=draw(mostly_ints),
            input_counters=draw(label_maps),
            pending_recv=draw(st.sampled_from([None, "x", "é"])),
        ),
        clock=VectorClock(components=tuple(parts)),
        time=draw(wild),
        channel_cursors=draw(cursor_maps),
        stmt_label=draw(st.one_of(st.none(), mostly_ints)),
        tag=draw(st.sampled_from(["", "app", "initial", "é" * 40])),
    )


class TestBulkPricing:
    @given(
        pool=st.lists(wild_checkpoints(), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bulk_total_is_the_encoded_length(self, pool, data):
        # An all-int entry takes every fast path; it pads the list past
        # one chunk, around runs of drawn entries placed anywhere.
        plain = make(
            0, 3, {"x": 1, "y": -200}, {"in": 4}, {(0, 1, "p2p"): (2, 1)},
            VectorClock.zero(3).tick(1), (FrameState("for", index=1),),
            None, 2.5,
        )
        pool.append(plain)
        runs = data.draw(st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 40)),
            min_size=1, max_size=4,
        ))
        entries = [pool[index] for index, count in runs for _ in range(count)]
        position = data.draw(st.integers(0, len(entries)))
        entries[position:position] = [plain] * (BULK_CHUNK + 1 - len(entries))
        sizes = {
            id(entry): len(encode_record(checkpoint_record(entry)))
            for entry in pool
        }
        assert full_bytes_total(entries) == sum(
            sizes[id(entry)] for entry in entries
        )
        assert full_bytes_total(pool) == sum(map(sizes.get, map(id, pool)))

    def test_every_unusual_case_in_one_list(self):
        clock = VectorClock.zero(3)
        none_fields = (
            FrameState(None, index=True), FrameState("for", trip=None)
        )
        cases = [
            make(0, 1, {"b": True, "n": -5, "huge": 2**1015, "s": "é"},
                 {}, {}, clock, (), None, 1.0),
            make(0, 2, {"none": None, "f": 0.5, "t": (1, (True, "x"))},
                 {"in": False}, {(0, 1, "p2p"): (1, 2, 3)}, clock, none_fields,
                 "x", 2),
            make(0, 3, {f"v{i}": i for i in range(130)}, {}, {
                (i, 1, "p2p"): (i, True) for i in range(128)
            }, VectorClock(components=(128, True, 5)), (), None, 3.0),
            make(1, 4, {}, {}, {(1, 0, "ctl"): tuple(range(130))},
                 clock, (), None, 3.5),
            make(1, 4, {}, {}, {(1, 0, "ctl"): None},
                 VectorClock.zero(130).tick(129), (), "é", 4.0),
            make(1, 5, {}, {}, {}, VectorClock(components=(2**70,)), (),
                 None, 5.0),
        ]
        plain = make(0, 0, {"x": 1}, {}, {}, clock, (), None, 0.0)
        entries = [plain] * (BULK_CHUNK - 2) + cases + [plain] * 3
        assert full_bytes_total(entries) == sum(
            len(encode_record(checkpoint_record(entry))) for entry in entries
        )
