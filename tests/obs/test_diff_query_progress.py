"""Diff engine, log queries, progress reporting, and schema versions."""

import io
import json

import pytest

from repro.obs import (
    EVENT_LOG_SCHEMA_VERSION,
    ObsEvent,
    ProgressEvent,
    ProgressReporter,
    SchemaVersionError,
    Threshold,
    diff_metrics,
    event_log_header,
    filter_events,
    flatten_metrics,
    format_diff,
)
from repro.obs.diff import load_metrics, parse_threshold_rule
from repro.obs.export import events_to_jsonl, read_event_log
from repro.obs.query import format_events, span_intervals


def event(seq, category, name, rank=None, time=0.0, **fields):
    return ObsEvent(
        seq=seq, category=category, name=name, rank=rank, time=time,
        clock=None, fields=fields,
    )


class TestFlatten:
    """flatten_metrics sniffs both supported schemas."""

    def test_registry_dump(self):
        flat = flatten_metrics({
            "frames_total": {"type": "counter", "value": 7},
            "retransmit_rate": {"type": "gauge", "value": 0.25},
            "latency": {
                "type": "histogram", "count": 2, "sum": 3.0,
                "mean": 1.5, "min": 1.0, "max": 2.0,
            },
        })
        assert flat["frames_total"] == 7.0
        assert flat["retransmit_rate"] == 0.25
        assert flat["latency.count"] == 2.0
        assert flat["latency.mean"] == 1.5

    def test_empty_histogram_skips_none_components(self):
        flat = flatten_metrics({
            "h": {"type": "histogram", "count": 0, "sum": 0.0,
                  "mean": 0.0, "min": None, "max": None},
        })
        assert "h.min" not in flat
        assert flat["h.count"] == 0.0

    def test_rollup_uses_aggregate_section(self):
        flat = flatten_metrics({
            "rollup_schema_version": 1,
            "aggregate": {"stats.checkpoints": {
                "type": "counter", "value": 9,
            }},
            "per_cell": {},
            "diagnostics": {"jobs": 4},
        })
        assert flat == {"stats.checkpoints": 9.0}

    def test_flat_mapping_passes_through(self):
        flat = flatten_metrics({
            "cells": 4, "rate": 0.5, "correct": True, "workload": "ring",
        })
        assert flat == {"cells": 4.0, "rate": 0.5, "correct": 1.0}

    def test_case_lists_are_not_a_schema(self):
        # Only scalars and typed metrics count: a list-valued entry
        # (such as a per-case table) contributes nothing.
        flat = flatten_metrics({
            "min_speedup": 1.5,
            "cases": [{"name": "a", "speedup": 2.0, "identical": True}],
        })
        assert flat == {"min_speedup": 1.5}

    def test_unknown_metric_type_raises(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            flatten_metrics({"m": {"type": "summary", "value": 1}})

    def test_load_metrics_reads_files(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "c": {"type": "counter", "value": 3},
        }))
        assert load_metrics(path) == {"c": 3.0}


class TestDiff:
    """Threshold resolution, ratios, and the worst-regression pick."""

    def test_no_thresholds_never_fails(self):
        report = diff_metrics({"a": 1.0}, {"a": 100.0})
        assert report.ok
        assert report.deltas[0].ratio == 100.0

    def test_min_ratio_floor(self):
        report = diff_metrics(
            {"speedup": 4.0}, {"speedup": 1.0},
            rules=[("speedup", Threshold(min_ratio=0.5))],
        )
        assert not report.ok
        (failure,) = report.failures
        assert "below floor" in failure.reason

    def test_max_ratio_ceiling(self):
        report = diff_metrics(
            {"retransmits": 2.0}, {"retransmits": 10.0},
            rules=[("retransmits", Threshold(max_ratio=2.0))],
        )
        assert not report.ok
        assert "above ceiling" in report.failures[0].reason

    def test_first_matching_rule_wins(self):
        report = diff_metrics(
            {"case.a.speedup": 4.0}, {"case.a.speedup": 3.0},
            rules=[
                ("case.*.speedup", Threshold(min_ratio=0.5)),
                ("case.a.*", Threshold(min_ratio=0.99)),
            ],
        )
        assert report.ok  # the loose rule matched first

    def test_added_and_removed_never_fail(self):
        report = diff_metrics(
            {"gone": 1.0}, {"new": 2.0},
            default=Threshold(min_ratio=1.0, max_ratio=1.0),
        )
        assert report.ok
        statuses = {d.name: d.status for d in report.deltas}
        assert statuses == {"gone": "removed", "new": "added"}

    def test_zero_baseline_ratios(self):
        report = diff_metrics({"a": 0.0, "b": 0.0}, {"a": 0.0, "b": 5.0})
        ratios = {d.name: d.ratio for d in report.deltas}
        assert ratios["a"] == 1.0
        assert ratios["b"] == float("inf")

    def test_worst_is_farthest_from_one_on_log_scale(self):
        report = diff_metrics(
            {"halved": 4.0, "tanked": 10.0},
            {"halved": 2.0, "tanked": 1.0},
            default=Threshold(min_ratio=0.9),
        )
        assert report.worst.name == "tanked"

    def test_format_names_worst_and_verdict(self):
        report = diff_metrics(
            {"speedup": 4.0}, {"speedup": 1.0},
            rules=[("speedup", Threshold(min_ratio=0.5))],
        )
        text = format_diff(report)
        assert "FAIL speedup: 4 -> 1" in text
        assert "worst regression: speedup (4 -> 1, ratio 0.250)" in text
        assert "FAIL: 1 of 1 compared metrics regressed" in text
        assert format_diff(diff_metrics({"a": 1.0}, {"a": 1.0})).endswith(
            "OK: 0 of 1 compared metrics regressed\n"
        )

    def test_parse_threshold_rule(self):
        pattern, threshold = parse_threshold_rule(
            "case.*.speedup:min=0.5,max=4"
        )
        assert pattern == "case.*.speedup"
        assert threshold == Threshold(min_ratio=0.5, max_ratio=4.0)
        for bad in ("no-bounds", "p:min", "p:floor=1"):
            with pytest.raises(ValueError):
                parse_threshold_rule(bad)


class TestQuery:
    """filter_events composes conjunctive filters over a log."""

    EVENTS = [
        event(0, "engine", "send", rank=0, time=1.0),
        event(1, "engine", "recv", rank=1, time=2.0),
        event(2, "protocol", "recovery", rank=None, time=5.0, depth=1),
        event(3, "span", "recovery.attempt", rank=1, time=4.0, dur=2.0),
        event(4, "engine", "send", rank=0, time=4.5),
        event(5, "engine", "send", rank=0, time=9.0),
    ]

    def test_rank_filter_handles_rankless(self):
        assert [e.seq for e in filter_events(self.EVENTS, ranks=[0])] == (
            [0, 4, 5]
        )
        assert [
            e.seq for e in filter_events(self.EVENTS, ranks=[None])
        ] == [2]

    def test_category_and_kind_filters(self):
        assert [
            e.seq for e in filter_events(self.EVENTS, categories=["span"])
        ] == [3]
        assert [
            e.seq for e in filter_events(self.EVENTS, kinds=["send"])
        ] == [0, 4, 5]

    def test_time_window_is_inclusive(self):
        kept = filter_events(self.EVENTS, since=2.0, until=4.5)
        assert [e.seq for e in kept] == [1, 3, 4]

    def test_span_filter_keeps_interval_and_span_events(self):
        kept = filter_events(self.EVENTS, span="recovery.attempt")
        # Interval [4.0, 6.0]: the recovery at 5.0, the send at 4.5,
        # and the span event itself.
        assert [e.seq for e in kept] == [2, 3, 4]

    def test_filters_compose_conjunctively(self):
        kept = filter_events(
            self.EVENTS, ranks=[0], kinds=["send"], until=5.0
        )
        assert [e.seq for e in kept] == [0, 4]

    def test_span_intervals(self):
        assert span_intervals(self.EVENTS, "recovery.attempt") == [
            (4.0, 6.0)
        ]
        assert span_intervals(self.EVENTS, "missing") == []

    def test_format_events(self):
        text = format_events(self.EVENTS[2:4])
        lines = text.splitlines()
        assert "protocol.recovery" in lines[0]
        assert "depth=1" in lines[0]
        assert "r-" in lines[0]  # rankless marker
        assert "span.recovery.attempt" in lines[1]
        assert format_events([]) == "no events matched\n"


class TestProgressReporter:
    """Structured events render as plain, ETA-decorated lines."""

    def _reporter(self, clocks):
        stream = io.StringIO()
        iterator = iter(clocks)
        return ProgressReporter(
            stream=stream, wall_clock=lambda: next(iterator)
        ), stream

    def test_full_campaign_rendering(self):
        # Clock reads: construction, the start event's elapsed, the
        # start event's epoch reset, then one per later event.
        reporter, stream = self._reporter([0.0, 0.0, 0.0, 10.0, 30.0, 40.0])
        reporter(ProgressEvent("start", 0, 4, fields={"jobs": 2}))
        reporter(ProgressEvent("cell-done", 1, 4, cell="a/p",
                               fields={"ok": True}))
        reporter(ProgressEvent("cell-done", 2, 4, cell="b/p",
                               fields={"ok": False}))
        reporter(ProgressEvent("end", 4, 4, fields={"failed": 1}))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "campaign: 4 cells, 2 job(s)"
        assert lines[1] == "[1/4] ok   a/p (10.0s eta 30s)"
        assert lines[2] == "[2/4] FAIL b/p (30.0s eta 30s)"
        assert lines[3] == "campaign done: 4/4 cells, 1 failed, " \
            "0 quarantined (40.0s)"

    def test_retry_and_quarantine_lines(self):
        reporter, stream = self._reporter([0.0, 1.0, 2.0])
        reporter(ProgressEvent("retry", 0, 3, cell="c/p",
                               fields={"attempt": 2}))
        reporter(ProgressEvent("quarantine", 1, 3, cell="c/p"))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[0/3] retry c/p (attempt 2)"
        assert lines[1] == "[1/3] QUARANTINED c/p"


class TestSchemaVersion:
    """The JSONL header gates forward compatibility."""

    EVENTS = [event(0, "engine", "send", rank=0, time=1.0)]

    def test_header_is_first_line(self):
        lines = events_to_jsonl(self.EVENTS).splitlines()
        header = json.loads(lines[0])
        assert header == {
            "format": "repro-obs-jsonl",
            "log_schema_version": EVENT_LOG_SCHEMA_VERSION,
        }
        assert lines[0] == event_log_header()
        assert len(lines) == 2

    def test_round_trip_through_header(self):
        replayed = read_event_log(events_to_jsonl(self.EVENTS))
        assert replayed == self.EVENTS

    def test_headerless_log_is_legacy_v1(self):
        legacy = json.dumps(self.EVENTS[0].to_dict())
        assert read_event_log(legacy) == self.EVENTS

    @pytest.mark.parametrize("text", ["", " ", "\n", "  \n\n"])
    def test_blank_text_is_an_empty_log(self, text):
        # Regression: "" has no newline and no "{", so the str-or-path
        # sniffing took it for a path and raised IsADirectoryError('.').
        assert read_event_log(text) == []

    def test_unknown_version_rejected_with_structure(self, tmp_path):
        lines = events_to_jsonl(self.EVENTS).splitlines()
        header = json.loads(lines[0])
        header["log_schema_version"] = 99
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(header) + "\n" + lines[1] + "\n")
        with pytest.raises(SchemaVersionError) as excinfo:
            read_event_log(path)
        assert excinfo.value.found == 99
        assert EVENT_LOG_SCHEMA_VERSION in excinfo.value.supported
