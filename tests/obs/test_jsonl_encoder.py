"""The event log's one encoder, byte for byte.

``events_to_jsonl`` and the executor's ``_normalized_jsonl`` share one
module-level compact encoder, and the ``stmt_id`` remap is applied to
each line's ``to_dict()`` payload rather than to a rebuilt event. The
bytes are a contract (artifact, journal and ``bench/expected`` digests
hang off them), so both are pinned against the formulations they
replaced, kept here as oracles: ``json.dumps`` per line, and
replace-then-encode.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.executor import _normalized_jsonl
from repro.lang.ast_nodes import walk
from repro.lang.programs import ring_pipeline
from repro.obs import (
    CATEGORIES,
    EVENT_LOG_SCHEMA_VERSION,
    ObsEvent,
    event_log_header,
    events_to_jsonl,
)
from repro.obs.export import read_event_log

PROGRAM = ring_pipeline()
NODE_IDS = [node.node_id for node in walk(PROGRAM)]

#: Non-ASCII, quotes, backslashes and control characters included.
TEXT = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", 'a"b\\c', " ", "é\n\t", "\U0001f600", ""]
)
INTS = st.integers(-(2 ** 70), 2 ** 70)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, float("inf"), float("-inf"), 1e-320, 1.7976931348623157e308]
)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=8,
)
#: A real statement id, an id no statement has, ``None`` — or no field.
STMT_IDS = st.sampled_from(NODE_IDS) | INTS | st.none()


@st.composite
def obs_events(draw, stmt_ids=False):
    fields = draw(st.dictionaries(TEXT, VALUES, max_size=4))
    if stmt_ids and draw(st.booleans()):
        fields["stmt_id"] = draw(STMT_IDS)
    return ObsEvent(
        seq=draw(INTS),
        category=draw(st.sampled_from(CATEGORIES)),
        name=draw(TEXT),
        rank=draw(st.none() | st.integers(0, 64)),
        time=draw(FLOATS | st.integers(0, 100)),
        clock=draw(st.none() | st.lists(INTS, max_size=4).map(tuple)),
        fields=fields,
    )


def dumps_line(payload):
    """The per-line formulation the shared encoder replaced."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def old_normalized_jsonl(events, program):
    """``_normalized_jsonl`` as it was: rebuild each event, then encode."""
    stmt_ids = {
        node.node_id: index
        for index, node in enumerate(walk(program), start=1)
    }
    events = [
        replace(
            event,
            fields={
                **event.fields,
                "stmt_id": stmt_ids.get(
                    event.fields["stmt_id"], event.fields["stmt_id"]
                ),
            },
        )
        if "stmt_id" in event.fields
        else event
        for event in events
    ]
    lines = [event_log_header()]
    lines += [dumps_line(event.to_dict()) for event in events]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(events=st.lists(obs_events(), max_size=6))
def test_every_line_is_what_json_dumps_writes(events):
    text = events_to_jsonl(events)
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert lines[0] == event_log_header() == dumps_line({
        "format": "repro-obs-jsonl",
        "log_schema_version": EVENT_LOG_SCHEMA_VERSION,
    })
    assert lines[1:] == [dumps_line(event.to_dict()) for event in events]
    for event in events:
        # No "fields" key for an event without any; one otherwise.
        assert ('"fields":' in dumps_line(event.to_dict())) == bool(
            event.fields
        )


@settings(max_examples=150, deadline=None)
@given(events=st.lists(obs_events(stmt_ids=True), max_size=6))
def test_normalized_log_matches_replace_then_encode(events):
    before = repr(events)
    text = _normalized_jsonl(SimpleNamespace(events=events), PROGRAM)
    assert text == old_normalized_jsonl(events, PROGRAM)
    # The remap works on the line's payload: the events are untouched.
    assert repr(events) == before


def test_remap_known_unknown_and_absent_stmt_ids():
    def event(seq, **fields):
        return ObsEvent(
            seq=seq, category="engine", name="send", rank=0, time=1.0,
            clock=(1,), fields=fields,
        )

    unknown = max(NODE_IDS) + 1000
    events = [
        event(0, stmt_id=NODE_IDS[3], peer=1),
        event(1, stmt_id=unknown),
        event(2, stmt_id=None),
        event(3, peer=2),
        event(4),
    ]
    text = _normalized_jsonl(SimpleNamespace(events=events), PROGRAM)
    decoded = read_event_log(text)
    assert [e.fields for e in decoded] == [
        {"stmt_id": 4, "peer": 1},      # pre-order position, 1-based
        {"stmt_id": unknown},           # passes through unchanged
        {"stmt_id": None},
        {"peer": 2},
        {},
    ]
    assert events[0].fields == {"stmt_id": NODE_IDS[3], "peer": 1}
    assert text == old_normalized_jsonl(events, PROGRAM)
