"""Vector clocks.

The standard mechanism for tracking Lamport's happened-before relation
[13] in an ``n``-process system: component ``k`` counts the events of
process ``k`` known to have causally preceded the clock's owner.
Immutable; all operations return new clocks.

A clock whose components are all ``int`` s in 0..127 is held *packed*:
one Python integer, a byte a component, component 0 the most
significant. ``tick`` is then one shifted add and ``receive`` a
byte-lane maximum over the whole integer, whatever the
number of processes; :attr:`VectorClock.components` is materialised
from it on first read. Any other clock is its tuple.
"""

from __future__ import annotations


class VectorClock:
    """An immutable vector clock over a fixed number of processes.

    Equality, hashing and ``repr`` go by :attr:`components` alone.
    """

    #: The tuple (``None`` until a packed clock is first read as one),
    #: the packed form where it is known, and ``0x80`` in each of its
    #: byte lanes (which also carries the width).
    __slots__ = ("_parts", "_packed", "_high")

    def __init__(self, components: tuple[int, ...]) -> None:
        self._parts = components
        self._packed = None
        self._high = 0

    @classmethod
    def zero(cls, n_processes: int) -> "VectorClock":
        """The all-zero clock for *n_processes* processes."""
        if n_processes < 1:
            raise ValueError(f"need at least one process, got {n_processes}")
        return _make_packed(0, int.from_bytes(b"\x80" * n_processes, "big"))

    @property
    def components(self) -> tuple[int, ...]:
        """One event count per process."""
        parts = self._parts
        if parts is None:
            parts = self._parts = tuple(
                self._packed.to_bytes(self._high.bit_length() >> 3, "big")
            )
        return parts

    @property
    def packed(self) -> int | None:
        """The clock as one big-endian integer, a byte a component.

        ``None`` unless every component is an ``int`` in 0..127. A clock
        built by ``zero`` / ``tick`` / ``receive`` from
        packed clocks has it already; any other is scanned when asked.
        """
        packed = self._packed
        if packed is None:
            parts = self._parts
            try:
                # bytes() takes exactly the integers 0..255, isascii()
                # bounds them below 128, the type set rules out bool.
                lanes = bytes(parts)
                if lanes.isascii() and set(map(type, parts)) <= {int}:
                    packed = self._packed = int.from_bytes(lanes, "big")
                    self._high = int.from_bytes(b"\x80" * len(lanes), "big")
            except (TypeError, ValueError):
                pass
        return packed

    @property
    def small(self) -> bool:
        """Whether every component is an ``int`` in 0..127 (see :attr:`packed`)."""
        return self.packed is not None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VectorClock:
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash((self.components,))

    def __repr__(self) -> str:
        return f"VectorClock(components={self.components!r})"

    def __len__(self) -> int:
        if self._packed is not None:
            return self._high.bit_length() >> 3
        return len(self._parts)

    def __getitem__(self, index: int) -> int:
        return self.components[index]

    def tick(self, process: int) -> "VectorClock":
        """Increment *process*'s own component (a local event)."""
        packed = self._packed
        if packed is not None and process >= 0:
            high = self._high
            shift = high.bit_length() - 8 - (process << 3)
            if shift >= 0:
                packed += 1 << shift
                # A lane that reaches 128 shows in its top bit.
                if not packed & high:
                    return _make_packed(packed, high)
        parts = list(self.components)
        parts[process] += 1
        return VectorClock(tuple(parts))

    def receive(self, other: "VectorClock", rank: int) -> "VectorClock":
        """``tick(rank)`` followed by the component-wise maximum with
        *other*, in one pass: the receipt rule for vector clocks. The
        receiver bumps its own component, then takes the maximum with
        the sender's attached clock; no intermediate ticked clock is
        allocated on the engine's delivery path.
        """
        a, b, high = self._packed, other._packed, self._high
        if a is not None and b is not None and high == other._high:
            shift = high.bit_length() - 8 - (rank << 3)
            if rank >= 0 and shift >= 0:
                a += 1 << shift
                if not a & high:
                    return _make_packed(_lane_max(a, b, high), high)
        mine, theirs = self.components, other.components
        if len(theirs) != len(mine):
            raise ValueError(
                f"clock size mismatch: {len(mine)} vs {len(theirs)}"
            )
        parts = [a if a >= b else b for a, b in zip(mine, theirs)]
        ticked = mine[rank] + 1
        if ticked > parts[rank]:
            parts[rank] = ticked
        return VectorClock(tuple(parts))

    def happened_before(self, other: "VectorClock") -> bool:
        """True iff ``self -> other`` in the happened-before order:
        ``self <= other`` component-wise with at least one strict."""
        a, b, high = self._packed, other._packed, self._high
        if a is not None and b is not None and high == other._high:
            return a != b and _lane_max(a, b, high) == b
        if len(other) != len(self):
            raise ValueError(
                f"clock size mismatch: {len(self)} vs {len(other)}"
            )
        at_most = all(a <= b for a, b in zip(self.components, other.components))
        return at_most and self.components != other.components


def _lane_max(a: int, b: int, high: int) -> int:
    """Byte-lane maximum of two packed clocks of the same width.

    Every lane is below 128, so ``(a | high) - b`` borrows across no
    lane boundary: a lane keeps its top bit exactly where ``a >= b``,
    and its low seven bits are then ``a - b``. Those differences,
    selected by the top bits widened to ``0x7F``, are added onto *b*.
    """
    spread = (a | high) - b
    keep = spread & high
    return b + (spread & (keep - (keep >> 7)))


def _make_packed(packed: int, high: int) -> VectorClock:
    """The clock with this packed form, without the ``__init__`` call.

    ``tick``/``receive`` run two to three times per traced event.
    """
    clock = object.__new__(VectorClock)
    clock._parts = None
    clock._packed = packed
    clock._high = high
    return clock
