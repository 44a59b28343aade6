"""ASCII space-time diagrams of executions.

One row per process, time flowing left to right, with event markers:

====== ==============================
``C``  checkpoint (``#`` when it belongs to the highlighted cut)
``s``  send
``r``  receive
``X``  failure
``^``  restart
====== ==============================

Example (the Figure 2 program's unsafe execution)::

    P0 |-C-s--r-----C-s--r------|
    P1 |----r--s-C------r--s-C--|

The optional *cut* argument highlights a checkpoint cut's members with
``#`` so inconsistent straight cuts are visible at a glance. Messages
can be listed separately with :func:`render_messages`.
"""

from __future__ import annotations

from repro.causality.cuts import CheckpointCut
from repro.causality.records import EventKind, TraceEvent

_MARKERS = {
    EventKind.CHECKPOINT: "C",
    EventKind.SEND: "s",
    EventKind.RECV: "r",
    EventKind.FAILURE: "X",
    EventKind.RESTART: "^",
}

# When two events land on the same column, the higher-priority marker wins.
_PRIORITY = {
    "X": 6,
    "^": 5,
    "#": 7,
    "C": 4,
    "r": 3,
    "s": 2,
}


def render_spacetime(
    trace,
    width: int = 72,
    cut: CheckpointCut | None = None,
    cuts: list[CheckpointCut] | None = None,
) -> str:
    """Render *trace* (an :class:`~repro.runtime.trace.ExecutionTrace`
    or any object with ``events`` and ``n_processes``) as ASCII rows.

    *cut* highlights one cut's members with ``#``; *cuts* highlights
    the members of several cuts at once (e.g. every recovery line
    ``R_i`` of a recorded run).
    """
    events: list[TraceEvent] = list(trace.events)
    n = trace.n_processes
    if not events:
        return "\n".join(f"P{rank} |" for rank in range(n)) + "\n"
    t_max = max(e.time for e in events)
    span = max(t_max, 1e-12)
    columns = max(8, width - 6)
    cut_keys = set()
    highlighted = list(cuts or [])
    if cut is not None:
        highlighted.append(cut)
    for each in highlighted:
        cut_keys |= {(m.process, m.seq) for m in each.members}

    rows = [["-"] * columns for _ in range(n)]
    for event in events:
        marker = _MARKERS.get(event.kind)
        if marker is None:
            continue
        if (event.process, event.seq) in cut_keys:
            marker = "#"
        col = min(columns - 1, int(event.time / span * (columns - 1)))
        current = rows[event.process][col]
        if _PRIORITY.get(marker, 0) >= _PRIORITY.get(current, 0):
            rows[event.process][col] = marker

    label_width = len(f"P{n - 1}")
    lines = [
        f"{f'P{rank}':<{label_width}} |" + "".join(row) + "|"
        for rank, row in enumerate(rows)
    ]
    legend = "legend: C checkpoint, s send, r recv, X failure, ^ restart"
    if cut_keys:
        legend += ", # cut member"
    lines.append(legend)
    lines.append(f"time: 0 .. {t_max:.2f}")
    return "\n".join(lines) + "\n"


def render_messages(trace, limit: int = 20) -> str:
    """Tabulate the first *limit* messages of *trace*: id, route, times."""
    sends = {
        e.message_id: e
        for e in trace.events
        if e.kind is EventKind.SEND and e.message_id is not None
    }
    lines = [f"{'msg':>5s} {'route':>10s} {'sent':>9s} {'recv':>9s} {'delay':>8s}"]
    count = 0
    for event in trace.events:
        if event.kind is not EventKind.RECV or event.message_id is None:
            continue
        send = sends.get(event.message_id)
        if send is None:
            continue
        lines.append(
            f"{event.message_id:>5d} "
            f"{f'P{send.process}->P{event.process}':>10s} "
            f"{send.time:>9.3f} {event.time:>9.3f} "
            f"{event.time - send.time:>8.3f}"
        )
        count += 1
        if count >= limit:
            remaining = trace.message_count() - count
            if remaining > 0:
                lines.append(f"  ... and {remaining} more")
            break
    return "\n".join(lines) + "\n"
