"""Lamport's happened-before relation over recorded executions.

:func:`happened_before` answers via the events' vector clocks (O(n) per
query). The tests check it against an explicit reachability graph over
process order plus send→receive pairs
(``tests/causality/happened_before_graph.py``), which validates the
simulator's clock maintenance end to end.
"""

from __future__ import annotations

from repro.causality.records import TraceEvent


def happened_before(a: TraceEvent, b: TraceEvent) -> bool:
    """True iff event *a* happened before event *b* (vector clocks)."""
    if a.process == b.process:
        return a.seq < b.seq
    return a.clock.happened_before(b.clock)
