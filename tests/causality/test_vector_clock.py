"""Vector-clock tests, including order-theoretic properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.vector_clock import VectorClock

clocks = st.builds(
    VectorClock,
    st.tuples(*[st.integers(min_value=0, max_value=5)] * 3),
)


class TestBasics:
    def test_zero(self):
        clock = VectorClock.zero(4)
        assert clock.components == (0, 0, 0, 0)
        assert len(clock) == 4

    def test_zero_requires_positive_size(self):
        with pytest.raises(ValueError):
            VectorClock.zero(0)

    def test_tick_increments_own_component(self):
        clock = VectorClock.zero(3).tick(1)
        assert clock.components == (0, 1, 0)

    def test_tick_returns_new_clock(self):
        original = VectorClock.zero(3)
        original.tick(0)
        assert original.components == (0, 0, 0)

    def test_receive_ticks_then_takes_the_componentwise_max(self):
        a = VectorClock((3, 0, 1))
        b = VectorClock((1, 2, 1))
        assert a.receive(b, 1).components == (3, 2, 1)
        assert a.receive(b, 0).components == (4, 2, 1)

    def test_receive_size_mismatch(self):
        with pytest.raises(ValueError):
            VectorClock((1, 2)).receive(VectorClock((1, 2, 3)), 0)

    def test_getitem(self):
        assert VectorClock((4, 5, 6))[1] == 5


class TestHappenedBefore:
    def test_strictly_smaller(self):
        assert VectorClock((1, 0)).happened_before(VectorClock((1, 1)))

    def test_equal_not_ordered(self):
        clock = VectorClock((2, 2))
        assert not clock.happened_before(VectorClock((2, 2)))

    def test_concurrent(self):
        a = VectorClock((1, 0))
        b = VectorClock((0, 1))
        assert not a.happened_before(b)
        assert not b.happened_before(a)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            VectorClock((1,)).happened_before(VectorClock((1, 2)))


class TestOrderProperties:
    @settings(max_examples=100, deadline=None)
    @given(a=clocks, b=clocks)
    def test_antisymmetry(self, a, b):
        assert not (a.happened_before(b) and b.happened_before(a))

    @settings(max_examples=100, deadline=None)
    @given(a=clocks, b=clocks, c=clocks)
    def test_transitivity(self, a, b, c):
        if a.happened_before(b) and b.happened_before(c):
            assert a.happened_before(c)

    @settings(max_examples=100, deadline=None)
    @given(a=clocks)
    def test_irreflexivity(self, a):
        assert not a.happened_before(a)

    @settings(max_examples=100, deadline=None)
    @given(a=clocks, b=clocks)
    def test_order_and_equality_exclude_each_other(self, a, b):
        relations = [
            a.happened_before(b),
            b.happened_before(a),
            a.components == b.components,
        ]
        assert sum(relations) <= 1

    @settings(max_examples=100, deadline=None)
    @given(a=clocks, b=clocks)
    def test_receive_is_upper_bound(self, a, b):
        merged = a.receive(b, 0)
        for source in (a, b):
            assert not merged.happened_before(source)
