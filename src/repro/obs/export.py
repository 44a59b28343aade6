"""Event-log exporters: JSONL, Chrome trace-event format, summaries.

The JSONL log is the archival format — a schema-version header line
followed by one event per line, sorted keys, byte-identical across
replays of the same seed and fault plan. From it this module can
reconstruct a full :class:`~repro.runtime.trace.ExecutionTrace` (the
engine events carry vector clocks and local sequence numbers, so every
offline causality analysis and the space-time renderer work on recorded
logs exactly as on live traces), convert to the Chrome
``chrome://tracing`` / Perfetto trace-event JSON format, or print a
human summary.

Schema versioning: the header line is
``{"log_schema_version": N, "format": "repro-obs-jsonl"}``. Version 1
logs (pre-header, events only) are still read; a header announcing an
*unknown* version is rejected with a structured
:class:`SchemaVersionError` before any event is parsed, so consumers
(``trace_from_events`` and everything downstream of
:func:`read_event_log`) never misinterpret records from a future
schema. Version 2 added ``span``-category events.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable

from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock
from repro.errors import SimulationError
from repro.obs.events import ObsEvent
from repro.obs.spans import chrome_document
from repro.runtime.trace import ExecutionTrace

#: Simulated seconds → Chrome trace microseconds.
_CHROME_US = 1_000_000.0

_ENGINE_KINDS = frozenset(kind.value for kind in EventKind)

#: The JSONL schema version this build writes.
EVENT_LOG_SCHEMA_VERSION = 2

#: Versions :func:`read_event_log` accepts (1 = legacy headerless logs).
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

#: The one compact, key-sorted encoder behind every log line: the bytes
#: of ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class SchemaVersionError(SimulationError):
    """An event log announced a schema this build cannot interpret.

    Attributes:
        found: The version the header declared.
        supported: The versions this build reads.
    """

    def __init__(self, found: int) -> None:
        self.found = found
        self.supported = tuple(sorted(SUPPORTED_SCHEMA_VERSIONS))
        super().__init__(
            f"event log declares schema version {found}; this build "
            f"supports {list(self.supported)} — refusing to guess at "
            "unknown record types"
        )


def event_log_header() -> str:
    """The JSONL header line (compact, sorted keys, no newline)."""
    return encode_line({
        "format": "repro-obs-jsonl",
        "log_schema_version": EVENT_LOG_SCHEMA_VERSION,
    })


_INF = float("inf")
_NONE = type(None)
#: ``encode_line(value)`` for a ``str``. This memo and :func:`_plan`'s
#: are process-level, bounded, and pure functions of their keys.
_text = lru_cache(maxsize=4096)(encode_line)


@lru_cache(maxsize=4096)
def _plan(key: tuple, n_fields: int) -> tuple | None:
    """How to write the events of one shape, or ``None`` for the long way.

    *key* is ``(category, name, *field names, *types)``, the types being
    those of ``[clock text, rank, seq, time, *field values]``. A shape
    whose names are all ``str`` and whose values are all plain ``int`` /
    ``float`` / ``str`` / ``None`` gets: the ``%``-template of its line
    (:data:`encode_line`'s own output for a payload with a marker at
    each value, so key order and escaping are its), the getter that
    picks the template's arguments out of that value list, and the
    positions of the strings to escape and of the floats to check for
    finiteness.
    """
    texts, types = key[:2 + n_fields], key[2 + n_fields:]
    names = texts[2:]
    plan = None
    if (
        {*map(type, texts)} == {str}
        and "\0" not in "".join(texts)  # the marker below
        and {int, float, str, _NONE}.issuperset(types)
    ):
        by_name = sorted(range(n_fields), key=names.__getitem__)
        order = [0, *(4 + i for i in by_name), 1, 2, 3]
        picked = [at for at in order if types[at] is not _NONE]
        if len(picked) > 1:  # fewer, and the getter returns no tuple
            clock, rank, seq, time, *values = (
                None if kind is _NONE else "\0" for kind in types
            )
            payload = ObsEvent(
                seq, key[0], key[1], rank, time, None,
                dict(zip(names, values)),
            ).to_dict() | {"clock": clock}
            plan = (
                encode_line(payload).replace("%", "%%").replace(
                    encode_line("\0"), "%s"
                ),
                itemgetter(*picked),
                tuple(at for at in order[1:] if types[at] is str),
                tuple(at for at in order if types[at] is float),
            )
    return plan


def _clock_text(clock) -> str | bool | None:
    """JSON text of an all-``int`` tuple clock, ``None`` of none.

    Any other clock gives ``False``: a ``bool`` among an event's values
    is something no plan takes, so the event is written the long way.
    """
    if clock is None:
        return None
    if type(clock) is tuple and {*map(type, clock)} <= {int}:
        return "[" + ",".join(map(repr, clock)) + "]"
    return False


def events_to_jsonl(events: Iterable[ObsEvent]) -> str:
    """Serialise *events* as JSONL: header line + one event per line.

    Keys are sorted and separators fixed, so the bytes are a pure
    function of the event stream — the determinism contract the test
    suite checks byte-for-byte. Each line is, by definition,
    ``encode_line(event.to_dict())``; an event of plain scalars and an
    all-``int`` tuple clock is written through its shape's template
    (:func:`_plan`) instead, to the same bytes.
    """
    lines = [event_log_header()]
    # A clock tuple is shared by every event its rank emits until the
    # next tick: render each object once (held here, so its id is its).
    clocks: dict[int, tuple] = {}
    for event in events:
        fields, clock = event.fields, event.clock
        held = clocks.get(id(clock))
        if held is None:
            held = clocks[id(clock)] = (clock, _clock_text(clock))
        values = [
            held[1], event.rank, event.seq, event.time, *fields.values()
        ]
        key = (event.category, event.name, *fields, *map(type, values))
        plan = _plan(key, len(fields))
        if plan is not None:
            template, pick, strings, floats = plan
            for at in floats:
                if not -_INF < values[at] < _INF:
                    break
            else:
                for at in strings:
                    values[at] = _text(values[at])
                lines.append(template % pick(values))
                continue
        lines.append(encode_line(event.to_dict()))
    return "\n".join(lines) + "\n"


def write_event_log(path: str | Path, events: Iterable[ObsEvent]) -> Path:
    """Write *events* to *path* as JSONL; returns the path."""
    path = Path(path)
    path.write_text(events_to_jsonl(events))
    return path


def read_event_log(source: str | Path) -> list[ObsEvent]:
    """Parse a JSONL event log from a path or a JSONL string.

    The first non-blank line may be a schema-version header (see the
    module doc); a header declaring an unsupported version raises
    :class:`SchemaVersionError`. Headerless logs are read as legacy
    version 1.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif "\n" in source or source.lstrip()[:1] in ("", "{"):
        text = source  # log text; blank text is an empty log, not a path
    else:
        text = Path(source).read_text()
    events = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if (
                not header_seen
                and not events
                and isinstance(data, dict)
                and "log_schema_version" in data
            ):
                header_seen = True
                version = int(data["log_schema_version"])
                if version not in SUPPORTED_SCHEMA_VERSIONS:
                    raise SchemaVersionError(version)
                continue
            events.append(ObsEvent.from_dict(data))
        except SchemaVersionError:
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SimulationError(
                f"malformed event log line {lineno}: {exc}"
            ) from exc
    return events


def trace_from_events(events: Iterable[ObsEvent]) -> ExecutionTrace:
    """Rebuild an :class:`ExecutionTrace` from a recorded event log.

    Only ``engine``-category events participate (they are exactly the
    events the live trace recorded, with vector clocks and local
    sequence numbers preserved), so recovery lines, rollback graphs,
    and space-time diagrams can all be computed from a log file alone.
    Raises :class:`SimulationError` on an engine event without its
    rank, clock or ``lseq`` stamp, and on a log with no engine events:
    a recorded run always logs each rank's checkpoint 0, so an empty
    trace would pass every cut check vacuously.
    """
    trace_events: list[TraceEvent] = []
    n_processes = 0
    for event in events:
        if event.category != "engine" or event.name not in _ENGINE_KINDS:
            continue
        lseq = event.fields.get("lseq")
        if event.rank is None or event.clock is None or lseq is None:
            raise SimulationError(
                f"engine event {event.seq} lacks rank/clock/lseq stamping"
            )
        n_processes = max(n_processes, event.rank + 1, len(event.clock))
        trace_events.append(TraceEvent(
            kind=EventKind(event.name),
            process=event.rank,
            seq=int(lseq),
            time=event.time,
            clock=VectorClock(tuple(event.clock)),
            message_id=event.fields.get("message_id"),
            peer=event.fields.get("peer"),
            checkpoint_number=event.fields.get("checkpoint_number"),
            stmt_id=event.fields.get("stmt_id"),
        ))
    if not trace_events:
        raise SimulationError(
            "event log has no engine events to rebuild a trace from"
        )
    trace = ExecutionTrace(n_processes=n_processes)
    for trace_event in trace_events:
        trace.events.append(trace_event)
        trace._seq[trace_event.process] = max(
            trace._seq.get(trace_event.process, 0), trace_event.seq + 1
        )
    return trace


def chrome_trace(events: Iterable[ObsEvent]) -> dict[str, Any]:
    """Convert an event log to Chrome trace-event format.

    Every event becomes an instant event (``ph: "i"``) on the thread
    of its rank (rank-less events land on a synthetic "system" thread),
    timestamped in microseconds of simulated time, with the vector
    clock and payload fields attached as ``args``. ``span``-category
    events instead become complete events (``ph: "X"``) whose duration
    is the span's simulated-clock ``dur`` field, so nested spans
    (recovery attempts, pipeline phases) render as stacked bars.
    Thread-name metadata events label each rank ``P0 .. Pn-1``. The
    result loads directly into ``chrome://tracing`` or
    https://ui.perfetto.dev.
    """
    trace_events: list[dict[str, Any]] = []
    ranks: set[int] = set()
    for event in events:
        tid = event.rank if event.rank is not None else -1
        if event.rank is not None:
            ranks.add(event.rank)
        args: dict[str, Any] = dict(event.fields)
        if event.clock is not None:
            args["vector_clock"] = list(event.clock)
        if event.category == "span":
            args.pop("dur", None)
            trace_events.append({
                "name": event.name,
                "cat": event.category,
                "ph": "X",
                "ts": event.time * _CHROME_US,
                "dur": float(event.fields.get("dur", 0.0)) * _CHROME_US,
                "pid": 0,
                "tid": tid,
                "args": args,
            })
            continue
        trace_events.append({
            "name": event.name,
            "cat": event.category,
            "ph": "i",
            "s": "t",
            "ts": event.time * _CHROME_US,
            "pid": 0,
            "tid": tid,
            "args": args,
        })
    return chrome_document(trace_events, ranks, "system")


def chrome_trace_json(
    events: Iterable[ObsEvent], indent: int | None = None
) -> str:
    """Chrome trace-event JSON text for *events*."""
    return json.dumps(chrome_trace(events), indent=indent, sort_keys=True)


def summarize_events(events: list[ObsEvent]) -> str:
    """Human-readable digest of an event log.

    Reports the span, per-category/name counts, per-rank event totals,
    and whether every ranked event carries a vector clock (the
    causal-completeness property downstream analyses rely on).
    """
    if not events:
        return "empty event log\n"
    counts: dict[str, int] = {}
    per_rank: dict[int, int] = {}
    unstamped = 0
    for event in events:
        key = f"{event.category}.{event.name}"
        counts[key] = counts.get(key, 0) + 1
        if event.rank is not None:
            per_rank[event.rank] = per_rank.get(event.rank, 0) + 1
            if event.clock is None:
                unstamped += 1
    lines = [
        f"events      : {len(events)}",
        f"time span   : {min(e.time for e in events):.3f} .. "
        f"{max(e.time for e in events):.3f}",
        f"ranks       : {sorted(per_rank)}",
        "vector clock: " + (
            "every ranked event stamped"
            if unstamped == 0
            else f"{unstamped} ranked event(s) UNSTAMPED"
        ),
    ]
    lines.append("counts:")
    for key in sorted(counts):
        lines.append(f"  {key:<28s} {counts[key]}")
    return "\n".join(lines) + "\n"
