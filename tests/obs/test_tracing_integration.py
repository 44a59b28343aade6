"""End-to-end tracing tests: determinism, reconstruction, exports.

The load-bearing guarantees of the observability subsystem:

- **determinism** — same (program, seed, fault plan) twice produces a
  byte-identical JSONL event log;
- **zero perturbation** — attaching an observer changes nothing about
  the simulated execution;
- **reconstruction** — the engine's :class:`ExecutionTrace` is fully
  recoverable from the event log alone, so space-time diagrams and
  causality analyses work offline, and a log that cannot rebuild one
  is refused rather than read as an empty run;
- **Chrome export** — the converted trace is a valid trace-event file.
"""

import json

import pytest

from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock
from repro.cli import main
from repro.errors import SimulationError
from repro.lang.programs import jacobi, ring_pipeline, tree_reduce
from repro.obs import (
    Observability,
    chrome_trace,
    events_to_jsonl,
    read_event_log,
    trace_from_events,
)
from repro.obs.events import ObsEvent
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FaultPlan, Simulation
from repro.viz import render_spacetime

PROGRAM = ring_pipeline()


def _traced_run(plan=None, steps=6):
    obs = Observability()
    result = Simulation(
        PROGRAM,
        3,
        params={"steps": steps},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=plan,
        seed=0,
        observer=obs.bus,
    ).run()
    return obs, result


def _round_trip(make=jacobi, n=4, steps=3, plan=None, protocol=None):
    """A run and the trace rebuilt from its event log's JSONL text."""
    obs = Observability()
    result = Simulation(
        make(), n, params={"steps": steps},
        fault_plan=plan, protocol=protocol, observer=obs.bus,
    ).run()
    text = events_to_jsonl(obs.events)
    return result.trace, trace_from_events(read_event_log(text))


def assert_same_trace(rebuilt, trace):
    # TraceEvent is a tuple and VectorClock defines __eq__, so this
    # compares every field of every event.
    assert rebuilt.n_processes == trace.n_processes
    assert rebuilt.events == trace.events


class TestDeterminism:
    """Byte-identical replays produce byte-identical traces."""

    def test_same_seed_same_plan_byte_identical_jsonl(self):
        plan = FaultPlan.single(12.0, 1)
        obs_a, _ = _traced_run(plan)
        obs_b, _ = _traced_run(plan)
        assert obs_a.jsonl() == obs_b.jsonl()

    def test_different_plan_differs(self):
        obs_a, _ = _traced_run(FaultPlan.single(12.0, 1))
        obs_b, _ = _traced_run(None)
        assert obs_a.jsonl() != obs_b.jsonl()

    def test_observer_does_not_perturb_the_run(self):
        plan = FaultPlan.single(12.0, 1)
        _, traced = _traced_run(plan)
        untraced = Simulation(
            PROGRAM,
            3,
            params={"steps": 6},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=plan,
            seed=0,
        ).run()
        assert_same_trace(traced.trace, untraced.trace)
        assert traced.stats.as_dict() == untraced.stats.as_dict()
        assert traced.final_env == untraced.final_env

    def test_no_wall_clock_in_events(self):
        obs, result = _traced_run()
        horizon = result.completion_time
        for event in obs.events:
            assert 0.0 <= event.time <= horizon + 1e-9


class TestVectorClockStamping:
    """Happened-before is recoverable from the log alone."""

    def test_every_ranked_event_is_stamped(self):
        obs, _ = _traced_run(FaultPlan.single(12.0, 1))
        ranked = [e for e in obs.events if e.rank is not None]
        assert ranked
        assert all(e.clock is not None for e in ranked)
        # Every runtime layer publishes, not just the engine.
        assert len(obs.bus.events) > 100
        assert {e.category for e in obs.events} >= {
            "engine", "transport", "storage", "protocol"
        }

    def test_send_happens_before_matching_recv(self):
        from repro.causality.vector_clock import VectorClock

        obs, _ = _traced_run()
        sends = {
            e.fields.get("message_id"): e
            for e in obs.events
            if e.category == "engine" and e.name == "send"
        }
        recvs = [
            e for e in obs.events
            if e.category == "engine" and e.name == "recv"
        ]
        assert recvs
        for recv in recvs:
            send = sends[recv.fields["message_id"]]
            assert VectorClock(send.clock).happened_before(
                VectorClock(recv.clock)
            )


class TestReconstruction:
    """The ExecutionTrace round-trips through the event log."""

    def test_trace_from_events_round_trip(self):
        obs, result = _traced_run(FaultPlan.single(12.0, 1))
        assert_same_trace(trace_from_events(obs.events), result.trace)

    def test_round_trip_through_file(self, tmp_path):
        obs, result = _traced_run()
        path = tmp_path / "events.jsonl"
        path.write_text(obs.jsonl())
        rebuilt = trace_from_events(read_event_log(path))
        assert_same_trace(rebuilt, result.trace)

    @pytest.mark.parametrize("make", [jacobi, tree_reduce])
    def test_events_preserved_exactly(self, make):
        trace, rebuilt = _round_trip(make=make)
        assert_same_trace(rebuilt, trace)

    def test_failure_events_round_trip(self):
        trace, rebuilt = _round_trip(
            steps=8,
            plan=FaultPlan.single(8.0, 1),
            protocol=ApplicationDrivenProtocol(),
        )
        assert_same_trace(rebuilt, trace)
        kinds = {e.kind for e in rebuilt.events}
        assert {EventKind.FAILURE, EventKind.RESTART} <= kinds

    def test_analyses_work_on_rebuilt_trace(self):
        trace, rebuilt = _round_trip()
        assert rebuilt.all_straight_cuts_consistent() == (
            trace.all_straight_cuts_consistent()
        )
        assert rebuilt.max_straight_cut_index() == trace.max_straight_cut_index()

    def test_appending_after_rebuild_continues_sequences(self):
        _, rebuilt = _round_trip()
        before = len(rebuilt.events_for(0))
        event = rebuilt.append(
            EventKind.CHECKPOINT, 0, 99.0, VectorClock.zero(4)
        )
        assert event.seq == before

    def test_cli_spacetime_matches_live_render(self, tmp_path, capsys):
        obs, result = _traced_run()
        path = tmp_path / "events.jsonl"
        path.write_text(obs.jsonl())
        capsys.readouterr()
        assert main(["trace", str(path), "--format", "spacetime"]) == 0
        offline = capsys.readouterr().out
        live = render_spacetime(
            result.trace, cuts=result.trace.all_straight_cuts()
        )
        assert offline == live
        assert "#" in offline  # recovery-line members are marked


def _engine_event(**fields):
    return ObsEvent(
        seq=0, time=1.0, category="engine", name="checkpoint",
        rank=0, clock=(1,), fields=fields,
    )


class TestReconstructionErrors:
    """A log that cannot rebuild the run's trace is refused."""

    def test_event_without_lseq_is_malformed(self):
        # Defaulting the stamp to 0 would put every receive "after"
        # any cut, hiding orphan witnesses.
        with pytest.raises(SimulationError, match="lseq"):
            trace_from_events([_engine_event()])

    def test_event_without_rank_or_clock_is_malformed(self):
        event = _engine_event(lseq=0)
        for broken in (event._replace(rank=None), event._replace(clock=None)):
            with pytest.raises(SimulationError, match="rank/clock"):
                trace_from_events([broken])

    def test_log_without_engine_events_is_refused(self):
        obs, _ = _traced_run()
        transport = [e for e in obs.events if e.category == "transport"]
        assert transport
        for events in ([], transport):
            with pytest.raises(SimulationError, match="no engine events"):
                trace_from_events(events)

    def test_optional_fields_absent(self):
        trace = trace_from_events([_engine_event(lseq=0)])
        assert trace.n_processes == 1
        assert trace.events == [
            TraceEvent(EventKind.CHECKPOINT, 0, 0, 1.0, VectorClock((1,)))
        ]


class TestChromeExport:
    """The Chrome trace-event conversion is well-formed."""

    def test_chrome_trace_shape(self):
        obs, _ = _traced_run()
        doc = chrome_trace(obs.events)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        payload = json.dumps(doc)  # must be JSON-serialisable
        assert json.loads(payload) == doc
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(obs.events)
        for entry in instants:
            assert entry["ts"] >= 0
            assert isinstance(entry["tid"], int)
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert {"P0", "P1", "P2"} <= names


class TestStats:
    """SimulationStats surfaces the degraded-recovery summary."""

    def test_max_fallback_depth(self):
        from repro.runtime.config import SimulationStats

        stats = SimulationStats()
        assert stats.max_fallback_depth == 0
        stats.fallback_depths.extend([0, 2, 1])
        assert stats.max_fallback_depth == 2
        assert stats.as_dict()["max_fallback_depth"] == 2

    def test_as_dict_includes_transport_and_fallback_counters(self):
        _, result = _traced_run(FaultPlan.single(12.0, 1))
        data = result.stats.as_dict()
        for key in (
            "frames_sent", "retransmits", "ack_frames",
            "recovery_fallbacks", "max_fallback_depth", "rollbacks",
        ):
            assert key in data
        assert json.dumps(data)  # JSON-serialisable
