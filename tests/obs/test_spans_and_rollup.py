"""Span tracker and campaign rollup tests.

Covers wall-clock span nesting on the tracker, the zero-cost null
tracker, the pipeline instrumentation, the recovery supervisor's
sim-clock span events on the bus, and the rollup merge algebra
(associative, commutative for counters/histograms, deterministic).
"""

import json
from types import SimpleNamespace

import pytest

from repro.lang.programs import ring_pipeline, stencil_1d
from repro.obs import NULL_TRACKER, Observability, SpanTracker
from repro.obs.rollup import (
    ROLLUP_SCHEMA_VERSION,
    campaign_rollup,
    cell_metrics,
    merge_metric,
    merge_registries,
    rollup_to_json,
)
from repro.phases.pipeline import transform
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.failures import (
    FaultKind,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)


PROGRAM = ring_pipeline()


def fake_clock(values):
    """A wall clock yielding the given readings in order."""
    iterator = iter(values)
    return lambda: next(iterator)


class TestSpanTracker:
    """Nesting, the wall clock, record(), and the Chrome export."""

    def test_nesting_assigns_parents(self):
        tracker = SpanTracker()
        with tracker.span("outer"):
            with tracker.span("inner"):
                pass
            with tracker.span("sibling"):
                pass
        outer, inner, sibling = tracker.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert [s.span_id for s in tracker.spans] == [0, 1, 2]

    def test_wall_duration_from_injected_clock(self):
        tracker = SpanTracker(wall_clock=fake_clock([10.0, 13.5]))
        with tracker.span("work"):
            pass
        (span,) = tracker.spans
        assert span.wall_duration == pytest.approx(3.5)

    def test_a_raising_block_still_closes_its_span(self):
        tracker = SpanTracker(wall_clock=fake_clock(range(6)))
        with pytest.raises(ValueError):
            with tracker.span("outer"):
                with tracker.span("inner"):
                    raise ValueError("boom")
        with tracker.span("after"):
            pass
        assert [s.wall_end for s in tracker.spans] == [3, 2, 5]
        assert tracker.spans[-1].parent_id is None  # nothing left open

    def test_record_parents_under_the_open_span(self):
        tracker = SpanTracker(wall_clock=fake_clock([0.0, 9.0]))
        with tracker.span("campaign"):
            span = tracker.record("cell", 1.0, 4.0, cell="a/b", ok=True)
        assert span.wall_duration == pytest.approx(3.0)
        assert span.parent_id == tracker.spans[0].span_id
        assert span.fields == {"cell": "a/b", "ok": True}
        # record() never touches the stack: the outer span closed clean.
        assert tracker.spans[0].wall_end == 9.0

    def test_live_span_fields_written_inside_block(self):
        tracker = SpanTracker()
        with tracker.span("cache.lookup") as span:
            span.fields["outcome"] = "miss"
        assert tracker.spans[0].fields["outcome"] == "miss"

    def test_null_tracker_records_nothing(self):
        with NULL_TRACKER.span("anything") as span:
            span.fields["outcome"] = "hit"  # must not leak anywhere
        assert span.span_id == -1
        assert not hasattr(NULL_TRACKER, "spans")

    def test_chrome_trace_shape(self):
        tracker = SpanTracker(
            wall_clock=fake_clock([1.0, 2.0, 3.0, 4.0])
        )
        with tracker.span("outer"):
            with tracker.span("inner", cell="x"):
                pass
        doc = tracker.chrome_trace()
        assert json.loads(json.dumps(doc)) == doc
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["outer", "inner"]
        outer, inner = complete
        assert outer["ts"] == 0.0  # zeroed at the first span's start
        assert {outer["tid"], inner["tid"]} == {-1}  # the driver thread
        assert outer["args"] == {"span_id": 0}
        assert inner["args"] == {"cell": "x", "span_id": 1, "parent": 0}
        threads = [
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        ]
        assert threads == ["driver"]


class TestPipelineSpans:
    """The offline pipeline's four phases run inside spans."""

    def test_all_four_phases_recorded(self):
        tracker = SpanTracker()
        transform(stencil_1d(), force_insertion=True, tracker=tracker)
        assert [s.name for s in tracker.spans] == [
            "phase1.insertion", "phase3.placement",
            "phase2.matching", "phase4.verification",
        ]
        assert all(s.wall_end is not None for s in tracker.spans)

    def test_insertion_span_skipped_when_program_has_checkpoints(self):
        tracker = SpanTracker()
        transform(ring_pipeline(), tracker=tracker)
        names = [s.name for s in tracker.spans]
        assert "phase1.insertion" not in names
        assert "phase4.verification" in names

    def test_cache_lookup_span_outcomes(self, tmp_path):
        from repro.campaign.cache import TransformCache

        cache = TransformCache(tmp_path / "cache")
        program = stencil_1d()
        miss_tracker = SpanTracker()
        transform(program, cache=cache, tracker=miss_tracker)
        hit_tracker = SpanTracker()
        transform(program, cache=cache, tracker=hit_tracker)
        (miss,) = [
            s for s in miss_tracker.spans if s.name == "cache.lookup"
        ]
        (hit,) = hit_tracker.spans
        assert miss.fields["outcome"] == "miss"
        assert hit.fields["outcome"] == "hit"
        # A hit returns without running any phase.
        assert [s.name for s in hit_tracker.spans] == ["cache.lookup"]

    def test_tracker_does_not_change_the_output(self):
        from repro.lang.printer import to_source

        program = stencil_1d()
        plain = transform(program, force_insertion=True)
        tracked = transform(
            program, force_insertion=True, tracker=SpanTracker()
        )
        assert to_source(plain.program) == to_source(tracked.program)


class TestRecoverySpans:
    """RecoverySupervisor publishes one sim-clock span per attempt."""

    def _run(self, plan):
        obs = Observability()
        result = Simulation(
            PROGRAM, 3, params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=plan, seed=0, observer=obs.bus,
        ).run()
        return obs, result

    def test_clean_recovery_emits_one_ok_span(self):
        obs, _ = self._run(FaultPlan(crashes=[(19.5, 1)]))
        spans = [e for e in obs.events if e.category == "span"]
        assert [e.fields["outcome"] for e in spans] == ["ok"]
        assert spans[0].name == "recovery.attempt"
        assert spans[0].time == 19.5

    def test_faulted_recovery_emits_retry_spans_with_backoff(self):
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            recovery_faults=[RecoveryFaultEvent(
                0, 1, RecoveryFaultKind.CRASH, attempts=2
            )],
        )
        obs, _ = self._run(plan)
        spans = [e for e in obs.events if e.category == "span"]
        assert [e.fields["outcome"] for e in spans] == [
            "retry", "retry", "ok"
        ]
        assert [e.fields["attempt"] for e in spans] == [1, 2, 3]
        # Retry spans cover the backoff window on the *simulated* clock.
        assert spans[0].fields["dur"] > 0.0
        durations = obs.metrics.as_dict()["span.recovery.attempt.sim_dur"]
        assert durations["count"] == 3

    def test_span_events_are_deterministic(self):
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            recovery_faults=[RecoveryFaultEvent(
                0, 1, RecoveryFaultKind.CRASH, attempts=1
            )],
        )
        obs_a, _ = self._run(plan)
        obs_b, _ = self._run(plan)
        assert obs_a.jsonl() == obs_b.jsonl()


class TestCollectorUnderFaults:
    """Derived metrics move the right way under injected faults."""

    def _run(self, plan, steps=8):
        obs = Observability()
        Simulation(
            PROGRAM, 3, params={"steps": steps},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=plan, seed=0, observer=obs.bus,
        ).run()
        return obs.metrics.as_dict()

    def test_retransmit_rate_rises_during_partition(self):
        clean = self._run(FaultPlan())
        partitioned = self._run(FaultPlan(network_faults=[
            NetworkFaultEvent(8.0, NetworkFaultKind.PARTITION, 0, 1),
            NetworkFaultEvent(11.0, NetworkFaultKind.HEAL, 0, 1),
        ]))
        assert clean["retransmits_total"]["value"] == 0
        assert clean["retransmit_rate"]["value"] == 0.0
        assert partitioned["retransmits_total"]["value"] >= 1
        assert 0.0 < partitioned["retransmit_rate"]["value"] < 1.0

    def test_rollback_depth_grows_under_escalating_fallback(self):
        # Bit-rot the latest checkpoint just before the crash: the
        # newest recovery line fails validation and recovery falls
        # back one line deeper.
        corrupted = self._run(FaultPlan(
            crashes=[(19.5, 1)],
            storage_faults=[
                StorageFaultEvent(19.0, 2, FaultKind.BIT_ROT)
            ],
        ), steps=10)
        clean = self._run(FaultPlan(crashes=[(19.5, 1)]), steps=10)
        assert clean["rollback_depth"]["max"] == 0.0
        assert corrupted["rollback_depth"]["max"] >= 1.0


class TestMergeAlgebra:
    """merge_metric/merge_registries: the rollup's determinism core."""

    def _hist(self, *values):
        metric = {
            "type": "histogram", "count": len(values), "sum": sum(values),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "mean": sum(values) / len(values) if values else 0.0,
        }
        return metric

    def test_counter_merge_adds(self):
        merged = merge_metric(None, {"type": "counter", "value": 2})
        merged = merge_metric(merged, {"type": "counter", "value": 3})
        assert merged == {"type": "counter", "value": 5}

    def test_gauge_merge_keeps_last_min_max(self):
        merged = merge_metric(None, {"type": "gauge", "value": 2.0})
        merged = merge_metric(merged, {"type": "gauge", "value": 5.0})
        merged = merge_metric(merged, {"type": "gauge", "value": 3.0})
        assert merged == {
            "type": "gauge", "value": 3.0, "min": 2.0, "max": 5.0,
        }

    def test_histogram_merge_is_associative(self):
        a, b, c = (
            self._hist(1.0, 3.0), self._hist(5.0), self._hist(2.0, 8.0)
        )
        left = merge_metric(
            merge_metric(merge_metric(None, a), b), c
        )
        ab = merge_metric(merge_metric(None, a), b)
        right = merge_metric(merge_metric(None, ab), c)
        assert left == right
        assert left == self._hist(1.0, 3.0, 5.0, 2.0, 8.0)

    def test_histogram_merge_is_commutative(self):
        a, b = self._hist(1.0, 7.0), self._hist(4.0)
        ab = merge_metric(merge_metric(None, a), dict(b))
        ba = merge_metric(merge_metric(None, b), dict(a))
        assert ab == ba

    def test_empty_histogram_merges_cleanly(self):
        merged = merge_metric(None, self._hist())
        merged = merge_metric(merged, self._hist(2.0))
        assert merged["count"] == 1
        assert merged["min"] == 2.0

    def test_type_mismatch_raises(self):
        counter = merge_metric(None, {"type": "counter", "value": 1})
        with pytest.raises(ValueError, match="cannot merge"):
            merge_metric(counter, {"type": "gauge", "value": 1.0})
        with pytest.raises(ValueError, match="unknown metric type"):
            merge_metric(None, {"type": "summary"})

    def test_merge_registries_order_and_keys(self):
        registries = [
            {"b": {"type": "counter", "value": 1},
             "a": {"type": "gauge", "value": 1.0}},
            {"a": {"type": "gauge", "value": 2.0}},
        ]
        merged = merge_registries(registries)
        assert list(merged) == ["a", "b"]  # sorted output keys
        assert merged["a"]["value"] == 2.0  # last in merge order


class TestRollups:
    """campaign_rollup document shape and invariance."""

    def _outcome(self, stats=None, error=None, events_jsonl=""):
        return SimpleNamespace(
            stats=stats or {}, error=error, events_jsonl=events_jsonl,
        )

    def _result(self, cells, jobs=1):
        return SimpleNamespace(
            cells=cells, jobs=jobs, timings={k: 0.1 for k in cells},
            workers={}, executor=None,
        )

    def test_cell_metrics_fold_stats_and_errors(self):
        metrics = cell_metrics(self._outcome(
            stats={"checkpoints": 4, "completed": True, "lost_work": 1.5},
            error="boom",
        ))
        assert metrics["stats.checkpoints"] == {
            "type": "counter", "value": 4,
        }
        assert metrics["stats.completed"]["value"] == 1
        assert metrics["stats.lost_work"] == {
            "type": "gauge", "value": 1.5,
        }
        assert metrics["cells_errored"]["value"] == 1

    def test_cell_metrics_replay_event_log(self):
        obs = Observability()
        Simulation(
            PROGRAM, 3, params={"steps": 6},
            protocol=ApplicationDrivenProtocol(), seed=0,
            observer=obs.bus,
        ).run()
        metrics = cell_metrics(self._outcome(events_jsonl=obs.jsonl()))
        assert metrics["events_total"]["value"] == len(obs.events)
        assert "checkpoint_latency" in metrics

    def test_rollup_shape_and_tags(self):
        result = self._result({
            "stencil/appl-driven": self._outcome(stats={"checkpoints": 2}),
            "ring/cl": self._outcome(stats={"checkpoints": 3}),
        }, jobs=4)
        rollup = campaign_rollup(result)
        assert rollup["rollup_schema_version"] == ROLLUP_SCHEMA_VERSION
        assert rollup["aggregate"]["stats.checkpoints"]["value"] == 5
        tags = rollup["per_cell"]["stencil/appl-driven"]["tags"]
        assert tags == {
            "cell": "stencil/appl-driven", "protocol": "appl-driven",
        }
        assert rollup["diagnostics"]["jobs"] == 4

    def test_aggregate_bytes_ignore_diagnostics(self):
        cells = {
            "a/p": self._outcome(stats={"checkpoints": 1}),
            "b/p": self._outcome(stats={"checkpoints": 2}),
        }
        serial = campaign_rollup(self._result(cells, jobs=1))
        parallel = campaign_rollup(self._result(cells, jobs=8))
        assert serial["aggregate"] == parallel["aggregate"]
        assert rollup_to_json(serial) != rollup_to_json(parallel)

    def test_chaos_rollup_counts_verdicts(self):
        # A chaos sweep is a campaign: a failed verdict is an errored
        # cell, a clean unrecoverable run is a stats counter, and the
        # faults that fired are stats counters too.
        result = self._result({
            "seed0/appl-driven": self._outcome(stats={
                "unrecoverable": False, "dropped_frames": 3, "failures": 1,
            }),
            "seed1/appl-driven": self._outcome(
                stats={
                    "unrecoverable": True, "dropped_frames": 5,
                    "failures": 2,
                },
                error="a surviving straight cut is not a recovery line",
            ),
        }, jobs=2)
        rollup = campaign_rollup(result)
        aggregate = rollup["aggregate"]
        assert len(rollup["per_cell"]) == 2
        assert aggregate["cells_errored"]["value"] == 1
        assert aggregate["stats.unrecoverable"]["value"] == 1
        assert aggregate["stats.dropped_frames"]["value"] == 8
        assert aggregate["stats.failures"]["value"] == 3
        assert rollup["per_cell"]["seed1/appl-driven"]["tags"] == {
            "cell": "seed1/appl-driven", "protocol": "appl-driven",
        }
