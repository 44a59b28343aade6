"""The structured event record and its taxonomy.

One :class:`ObsEvent` is one observable fact about a run, stamped with
the layer that produced it (``category``), a short event ``name``, the
publishing process (``rank``, where one exists), the **simulated** time
(never wall-clock — determinism depends on it), and the publisher's
vector clock at emission. Payload details ride in ``fields``, a flat
JSON-safe mapping.

Event taxonomy (category → names):

========== =========================================================
engine     ``send``, ``recv``, ``checkpoint``, ``failure``,
           ``restart``, ``rollback``, ``single-restart``
transport  ``frame``, ``ack``, ``ack-lost``, ``drop``, ``corrupt``,
           ``delay``, ``duplicate``
storage    ``commit``, ``write-fail``, ``torn-write``, ``bit-rot``,
           ``corrupt-detected``
protocol   ``control-send``, ``control-recv``, ``timer``,
           ``recovery``, ``degraded-fallback``, ``domino-search``,
           ``replay-restart``
span       closed :class:`~repro.obs.spans.Span` records — the span
           name is the event name (``recovery.attempt``,
           ``phase3.placement``, ...); ``fields`` carry ``span_id``,
           ``parent``, and the simulated-clock ``dur``
========== =========================================================
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

#: The event categories, one per publishing runtime layer (plus the
#: cross-layer ``span`` records emitted by closed spans).
CATEGORIES = ("engine", "transport", "storage", "protocol", "span")

#: The payload of an event built without one: empty and read-only, so
#: no two events share a mutable mapping.
_NO_FIELDS: Mapping[str, Any] = MappingProxyType({})


class ObsEvent(NamedTuple):
    """One structured observability event: one tuple, one allocation.

    Attributes:
        seq: Global emission order on the bus (0-based); ties on equal
            simulated times are broken by it, so replays order
            identically.
        category: Publishing layer (one of :data:`CATEGORIES`).
        name: Short event name within the category.
        rank: Publishing process, or ``None`` for system-wide events
            (e.g. a whole-cut rollback).
        time: Simulated time of the event. Never wall-clock.
        clock: The publisher's vector-clock components at emission, or
            ``None`` when no process context exists. Happened-before
            between any two stamped events is decidable from these
            alone.
        fields: Flat JSON-safe payload (ints, floats, strings, or
            small lists/dicts thereof).
    """

    seq: int
    category: str
    name: str
    rank: int | None
    time: float
    clock: tuple[int, ...] | None = None
    fields: Mapping[str, Any] = _NO_FIELDS

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dictionary form (stable key set, compact)."""
        payload: dict[str, Any] = {
            "seq": self.seq,
            "cat": self.category,
            "name": self.name,
            "rank": self.rank,
            "t": self.time,
            "clock": list(self.clock) if self.clock is not None else None,
        }
        if self.fields:
            payload["fields"] = self.fields
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ObsEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        clock = data.get("clock")
        return cls(
            seq=int(data["seq"]),
            category=str(data["cat"]),
            name=str(data["name"]),
            rank=data.get("rank"),
            time=float(data["t"]),
            clock=tuple(int(c) for c in clock) if clock is not None else None,
            fields=dict(data.get("fields", {})),
        )
