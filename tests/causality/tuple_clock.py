"""The tuple-only vector clock, kept as a test oracle.

This is ``repro.causality.vector_clock`` as it stood before clocks were
packed into one integer: every operation walks a tuple of components
and ``small`` is a propagated-or-scanned flag. The packed clock must
agree with it on every value, error and identity it produces
(``test_packed_clock_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TupleClock:
    """An immutable vector clock over a fixed number of processes."""

    components: tuple[int, ...]
    #: What is known of :attr:`small` (``None``: not worked out yet). A
    #: class default, not a field: equality and hashing ignore it.
    _small = None

    @classmethod
    def zero(cls, n_processes: int) -> "TupleClock":
        """The all-zero clock for *n_processes* processes."""
        if n_processes < 1:
            raise ValueError(f"need at least one process, got {n_processes}")
        return _make((0,) * n_processes, True)

    @property
    def small(self) -> bool:
        """Whether every component is an ``int`` in 0..127.

        The checkpoint sizer's question before it treats the clock as a
        byte string. ``zero`` knows the answer and ``tick`` /
        ``receive`` pass a yes on while their new components stay
        below 128; any other clock is scanned, once.
        """
        small = self._small
        if small is None:
            parts = self.components
            try:
                # bytes() takes exactly the integers 0..255, isascii()
                # bounds them below 128, the type set rules out bool.
                small = bytes(parts).isascii() and set(map(type, parts)) <= {int}
            except (TypeError, ValueError):
                small = False
            self.__dict__["_small"] = small
        return small

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, index: int) -> int:
        return self.components[index]

    def tick(self, process: int) -> "TupleClock":
        """Increment *process*'s own component (a local event)."""
        parts = list(self.components)
        parts[process] += 1
        return _make(tuple(parts), self._small and parts[process] < 128)

    def receive(self, other: "TupleClock", rank: int) -> "TupleClock":
        """``tick(rank)`` followed by the component-wise maximum with
        *other*: the receipt rule for vector clocks."""
        mine, theirs = self.components, other.components
        if len(theirs) != len(mine):
            raise ValueError(
                f"clock size mismatch: {len(mine)} vs {len(theirs)}"
            )
        parts = [a if a >= b else b for a, b in zip(mine, theirs)]
        ticked = mine[rank] + 1
        if ticked > parts[rank]:
            parts[rank] = ticked
        return _make(
            tuple(parts), self._small and other._small and parts[rank] < 128
        )

    def happened_before(self, other: "TupleClock") -> bool:
        """True iff ``self -> other`` in the happened-before order:
        ``self <= other`` component-wise with at least one strict."""
        if len(other) != len(self):
            raise ValueError(
                f"clock size mismatch: {len(self)} vs {len(other)}"
            )
        at_most = all(a <= b for a, b in zip(self.components, other.components))
        return at_most and self.components != other.components


def _make(components: tuple, small=None) -> TupleClock:
    """Build a clock without the frozen-dataclass ``__init__``.

    A true *small* records that :attr:`TupleClock.small` is known to hold.

    ``tick``/``receive`` run two to three times per traced event; the
    generated frozen ``__init__`` (``object.__setattr__``) costs ~3x a
    direct ``__dict__`` store. Semantically identical: the class has no
    ``__slots__`` and equality/hash read the same attribute.
    """
    clock = TupleClock.__new__(TupleClock)
    clock.__dict__["components"] = components
    if small:
        clock.__dict__["_small"] = True
    return clock
