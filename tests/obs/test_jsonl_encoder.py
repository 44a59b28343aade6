"""The event log's one encoder, byte for byte.

``events_to_jsonl`` writes an event of plain scalars through a
``%``-template of its shape and everything else through the compact
JSON encoder, and the executor's ``_normalized_jsonl`` hands it the
``stmt_id`` remap instead of rewriting payloads. The bytes are a
contract (artifact, journal and ``bench/expected`` digests hang off
them), so both are pinned against the formulations they replaced, kept
here as oracles: ``json.dumps`` of ``to_dict()`` per line, and
replace-then-encode. The draws aim at what a hand-written encoder gets
wrong: ``%`` / quotes / non-ASCII in names and keys, non-``str`` keys,
``bool`` / ``NaN`` / infinities / 2**70 in every scalar position, list
and 0/1-component clocks, and one shape seen with two sets of types.
"""

import json
from types import SimpleNamespace

import pytest
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
from repro.obs import export
from repro.obs.export import read_event_log

from .test_live_rollup import PROTOCOLS, SEEDS, faulted_spec

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


#: Keys JSON coerces to strings; one type a dict, so they sort.
ODD_KEYS = st.one_of(
    st.dictionaries(st.integers(-3, 3), VALUES, max_size=3),
    st.dictionaries(st.booleans(), VALUES, max_size=2),
    st.dictionaries(st.sampled_from([0.5, -0.0, 1e300]), VALUES, max_size=2),
    st.dictionaries(st.none(), VALUES, max_size=1),
)
COMPONENTS = st.lists(
    INTS | st.integers(0, 12) | st.booleans() | FLOATS, max_size=4
)


@st.composite
def obs_events(draw, stmt_ids=False):
    fields = draw(st.dictionaries(TEXT, VALUES, max_size=4) | ODD_KEYS)
    if stmt_ids and draw(st.booleans()) and all(
        isinstance(key, str) for key in fields  # mixed keys do not sort
    ):
        fields["stmt_id"] = draw(STMT_IDS)
    return ObsEvent(
        seq=draw(INTS | SCALARS),
        category=draw(st.sampled_from(CATEGORIES) | TEXT),
        name=draw(TEXT),
        rank=draw(st.none() | st.integers(0, 64) | SCALARS),
        time=draw(FLOATS | st.integers(0, 100) | SCALARS),
        clock=draw(st.none() | COMPONENTS.map(tuple) | COMPONENTS),
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
        event._replace(
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


@settings(max_examples=400, deadline=None)
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


@settings(max_examples=400, deadline=None)
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


def shaped(**overrides):
    """One ``storage.commit``-shaped event; *overrides* replace parts."""
    parts = dict(
        seq=7, category="storage", name="commit", rank=2, time=3.25,
        clock=(4, 0, 9), fields={"number": 3, "bytes": 120, "tag": "t"},
    ) | overrides
    return ObsEvent(**parts)


def test_a_template_does_not_remember_a_type():
    # Same category, name and field names throughout: every variant
    # after the first meets a template compiled for plain types.
    nan, inf = float("nan"), float("inf")
    variants = [
        shaped(),
        shaped(seq=True), shaped(seq=2 ** 70), shaped(seq=7.0),
        shaped(rank=None), shaped(rank=False), shaped(rank=inf),
        shaped(rank="2"),
        shaped(time=3), shaped(time=True), shaped(time=nan),
        shaped(time=inf), shaped(time=-inf), shaped(time=None),
        shaped(clock=None), shaped(clock=()), shaped(clock=(5,)),
        shaped(clock=[4, 0, 9]), shaped(clock=(4, True, 9)),
        shaped(clock=(4, 0.0, 9)), shaped(clock=(4, nan, 2 ** 70)),
        shaped(clock=(4, (0,), 9)),
        shaped(fields={"number": True, "bytes": 120, "tag": "t"}),
        shaped(fields={"number": 3, "bytes": nan, "tag": "t"}),
        shaped(fields={"number": 3, "bytes": -inf, "tag": 'q"%s\u00e9'}),
        shaped(fields={"number": None, "bytes": 2 ** 70, "tag": 1.5}),
        shaped(fields={"number": [3], "bytes": {"a": 1}, "tag": "t"}),
        shaped(fields={"tag": "t", "bytes": 120, "number": 3}),  # order
        shaped(),
    ]
    lines = events_to_jsonl(variants + variants[::-1])[:-1].split("\n")[1:]
    assert lines == [
        dumps_line(event.to_dict()) for event in variants + variants[::-1]
    ]
    assert lines[0] == lines[-1] == (
        '{"cat":"storage","clock":[4,0,9],"fields":{"bytes":120,'
        '"number":3,"tag":"t"},"name":"commit","rank":2,"seq":7,"t":3.25}'
    )


def test_percent_signs_in_names_and_keys_are_literal():
    event = ObsEvent(
        seq=1, category="100%", name="%s %(rank)d %%", rank=0, time=0.5,
        clock=(1,), fields={"%d": 1, "%": "%s", "a%sb": None},
    )
    text = events_to_jsonl([event, event])
    assert text.split("\n")[1:3] == [dumps_line(event.to_dict())] * 2
    assert read_event_log(text) == [event, event]


def test_nul_in_a_name_is_not_taken_for_a_value_marker():
    # The template is the encoder's output for a payload with a NUL
    # string at each value; a name that encodes to the same bytes
    # (a quote, then NUL, at its end) must not become a hole.
    for text in ("\0", 'a"\0', '"\0"', "\0\0"):
        events = [
            ObsEvent(seq=1, category=text, name="n", rank=0, time=0.5),
            ObsEvent(seq=2, category="c", name=text, rank=0, time=0.5),
            ObsEvent(seq=3, category="c", name="n", rank=0, time=0.5,
                     fields={text: "\0", "k": text}),
        ]
        assert events_to_jsonl(events)[:-1].split("\n")[1:] == [
            dumps_line(event.to_dict()) for event in events
        ]


def test_stmt_id_map_must_hold_plain_ints():
    with pytest.raises(TypeError, match="plain ints"):
        events_to_jsonl([], {1: "one"})
    with pytest.raises(TypeError, match="plain ints"):
        events_to_jsonl([], {1: True})


def test_memos_are_bounded_and_refill():
    bound = export._plan.cache_info().maxsize
    assert 0 < bound <= 4096 and export._text.cache_info().maxsize == bound
    events = [
        shaped(name=f"n{index}", fields={f"k{index}": f"v{index}"})
        for index in range(bound + 50)
    ]
    text = events_to_jsonl(events + events)
    assert export._plan.cache_info().currsize == bound
    assert text[:-1].split("\n")[1:] == [
        dumps_line(event.to_dict()) for event in events + events
    ]


class TestRealLogs:
    """The six protocols' faulted cells: every line, with and without
    the ``stmt_id`` map."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_faulted_cell(self, protocol, seed):
        from repro.errors import ReproError
        from repro.obs import Observability

        obs = Observability()
        sim = faulted_spec(protocol, seed).build(observer=obs.bus)
        try:
            sim.run()
        except ReproError:
            pass
        assert len(obs.events) > 100
        lines = obs.jsonl()[:-1].split("\n")
        assert lines[1:] == [dumps_line(e.to_dict()) for e in obs.events]
        normalized = _normalized_jsonl(obs, sim.program)
        assert normalized == old_normalized_jsonl(obs.events, sim.program)
        assert any(
            "stmt_id" in event.fields for event in obs.events
        ) and normalized != obs.jsonl()
        # A fixpoint of its own reader and writer.
        assert events_to_jsonl(read_event_log(normalized)) == normalized
