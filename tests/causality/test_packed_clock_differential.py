"""The packed vector clock against the tuple clock it replaced.

``VectorClock`` holds a clock whose components are all ``int`` s in
0..127 as one integer and falls back to tuples for anything else. Every
value and error must be what the tuple-only
implementation (``tuple_clock.TupleClock``) produces: along random
``zero`` / ``tick`` / ``receive`` chains from arbitrary
seeds, across the 127 -> 128 boundary where a clock leaves the packed
form, and with packed and unpacked operands mixed.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.vector_clock import VectorClock

from .tuple_clock import TupleClock

WIDTHS = (1, 2, 127, 128, 129, 300)

# In range, at the edge of the range, and everything bytes()/isascii()/
# the type check must each refuse.
parts = st.one_of(
    st.integers(0, 127),
    st.sampled_from([126, 127, 127]),
    st.sampled_from([128, 255, 256, 2**70, -1, True, False]),
)


@st.composite
def seeds(draw, width):
    """A seed clock's components: one fill value and a few overrides."""
    components = [draw(st.sampled_from([0, 3, 126, 127]))] * width
    for index in draw(st.lists(st.integers(0, width - 1), max_size=4)):
        components[index] = draw(parts)
    return tuple(components)


def outcome(call):
    """What *call* returns, or the type and text of what it raises."""
    try:
        return "ok", call()
    except (ValueError, IndexError, TypeError) as error:
        return type(error), str(error)


def same_clock(new, old):
    """Every public reading of *new* equals the oracle's of *old*."""
    assert type(new) is VectorClock and type(old) is TupleClock
    assert new.components == old.components
    assert list(map(type, new.components)) == list(map(type, old.components))
    assert len(new) == len(old)
    assert hash(new) == hash(old)
    assert repr(new) == repr(old).replace("TupleClock", "VectorClock")
    assert new.small == old.small
    assert (new.packed is not None) == old.small
    for index in (0, -1, len(old) // 2):
        assert new[index] == old[index]
    with pytest.raises(IndexError):
        new[len(old)]


class TestChains:
    @given(data=st.data(), width=st.sampled_from(WIDTHS))
    @settings(max_examples=120, deadline=None)
    def test_every_step_matches_the_oracle(self, data, width):
        drawn = data.draw(st.lists(seeds(width), max_size=3))
        # A clock of another width now and then: every pairing with it
        # must raise the oracle's size-mismatch error.
        if data.draw(st.integers(0, 5)) == 0:
            drawn.append((1,) * (width + 1))
        pool = [(VectorClock.zero(width), TupleClock.zero(width))] + [
            (VectorClock(seed), TupleClock(seed)) for seed in drawn
        ]
        # A constructed clock takes the packed path only once something
        # has asked whether it is small: exercise it asked and unasked.
        for new, _ in pool:
            if data.draw(st.booleans()):
                new.small
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["tick", "receive"]),
                    # Mostly a valid rank; sometimes one past either end
                    # (negative ranks index from the back, as tuples do).
                    st.one_of(
                        st.integers(0, width - 1),
                        st.sampled_from([-1, -width, -width - 1, width]),
                    ),
                    st.integers(0, 40), st.integers(0, 40),
                ),
                max_size=40,
            )
        )
        for op, rank, left, right in steps:
            (a_new, a_old) = pool[left % len(pool)]
            (b_new, b_old) = pool[right % len(pool)]
            if op == "tick":
                got = outcome(lambda: a_new.tick(rank))
                want = outcome(lambda: a_old.tick(rank))
            else:
                got = outcome(lambda: a_new.receive(b_new, rank))
                want = outcome(lambda: a_old.receive(b_old, rank))
            assert got[0] == want[0]
            if got[0] != "ok":
                assert got[1] == want[1]
                continue
            new, old = got[1], want[1]
            same_clock(new, old)
            pool.append((new, old))
        for new, old in pool:
            same_clock(new, old)
        for (a_new, a_old), (b_new, b_old) in zip(pool, pool[1:]):
            assert (a_new == b_new) == (a_old == b_old)
            for x_new, x_old, y_new, y_old in (
                (a_new, a_old, b_new, b_old), (b_new, b_old, a_new, a_old),
            ):
                got = outcome(lambda: x_new.happened_before(y_new))
                want = outcome(lambda: x_old.happened_before(y_old))
                assert got == want


class TestLeavingThePackedForm:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("lane", ("first", "last"))
    def test_ticked_lane_crosses_127(self, width, lane):
        rank = 0 if lane == "first" else width - 1
        new, old = VectorClock.zero(width), TupleClock.zero(width)
        for count in range(1, 131):
            new, old = new.tick(rank), old.tick(rank)
            same_clock(new, old)
            assert new.small == (count < 128)
        assert new[rank] == 130 and sum(new.components) == 130

    @pytest.mark.parametrize("width", WIDTHS)
    def test_received_lane_crosses_127(self, width):
        rank = width // 2
        seed = tuple(127 if i == rank else 5 for i in range(width))
        sender = (9,) * width
        new = VectorClock(seed).receive(VectorClock(sender), rank)
        same_clock(new, TupleClock(seed).receive(TupleClock(sender), rank))
        assert new[rank] == 128 and not new.small

    @pytest.mark.parametrize("width", WIDTHS[1:])
    def test_merged_lane_comes_from_an_unpacked_operand(self, width):
        low = VectorClock.zero(width).tick(0)
        high = VectorClock.zero(width)
        for _ in range(128):
            high = high.tick(width - 1)
        assert low.small and not high.small
        for a, b in ((low, high), (high, low)):
            received = a.receive(b, 0)
            same_clock(
                received,
                TupleClock(a.components).receive(TupleClock(b.components), 0),
            )
            assert received[width - 1] == 128

    def test_a_scanned_clock_joins_the_packed_path(self):
        built = VectorClock((3, 127, 0))
        assert built.packed == 0x037F00
        ticked = built.tick(2)
        assert ticked.components == (3, 127, 1) and ticked.small
        assert not built.tick(1).small

    @pytest.mark.parametrize(
        "components", [(True, 0), (-1, 0), (128, 0), (2**70, 0), (0.0, 1)]
    )
    def test_out_of_range_parts_never_pack(self, components):
        clock = VectorClock(components)
        assert clock.packed is None and not clock.small
        same_clock(clock.tick(1), TupleClock(components).tick(1))


class TestPackedClocksAreOrdinaryValues:
    def test_equal_and_hash_equal_to_a_constructed_clock(self):
        packed = VectorClock.zero(3).tick(1).tick(1)
        built = VectorClock((0, 2, 0))
        assert packed == built and hash(packed) == hash(built)
        assert len({packed, built}) == 1
        assert packed != VectorClock((0, 2, 1))
        assert repr(packed) == "VectorClock(components=(0, 2, 0))"

    def test_pickle_round_trip(self):
        for clock in (VectorClock.zero(130).tick(129), VectorClock((200, 1))):
            copy = pickle.loads(pickle.dumps(clock))
            assert copy == clock and copy.small == clock.small
            assert copy.tick(0).components == clock.tick(0).components

    def test_no_attribute_can_be_set(self):
        clock = VectorClock.zero(2)
        with pytest.raises(AttributeError):
            clock.components = (1, 1)
        with pytest.raises(AttributeError):
            clock.owner = 0
