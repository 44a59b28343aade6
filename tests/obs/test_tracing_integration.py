"""End-to-end tracing tests: determinism, reconstruction, exports.

The load-bearing guarantees of the observability subsystem:

- **determinism** — same (program, seed, fault plan) twice produces a
  byte-identical JSONL event log;
- **zero perturbation** — attaching an observer changes nothing about
  the simulated execution;
- **reconstruction** — the engine's :class:`ExecutionTrace` is fully
  recoverable from the event log alone, so space-time diagrams and
  causality analyses work offline;
- **Chrome export** — the converted trace is a valid trace-event file.
"""

import json

from repro.lang.programs import ring_pipeline
from repro.obs import (
    Observability,
    chrome_trace,
    read_event_log,
    trace_from_events,
)
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FailurePlan, Simulation
from repro.runtime.export import trace_to_json
from repro.viz import render_spacetime, render_spacetime_from_log

PROGRAM = ring_pipeline()


def _traced_run(plan=None, steps=6):
    obs = Observability()
    result = Simulation(
        PROGRAM,
        3,
        params={"steps": steps},
        protocol=ApplicationDrivenProtocol(),
        failure_plan=plan,
        seed=0,
        observer=obs.bus,
    ).run()
    return obs, result


class TestDeterminism:
    """Byte-identical replays produce byte-identical traces."""

    def test_same_seed_same_plan_byte_identical_jsonl(self):
        plan = FailurePlan.single(12.0, 1)
        obs_a, _ = _traced_run(plan)
        obs_b, _ = _traced_run(plan)
        assert obs_a.jsonl() == obs_b.jsonl()

    def test_different_plan_differs(self):
        obs_a, _ = _traced_run(FailurePlan.single(12.0, 1))
        obs_b, _ = _traced_run(None)
        assert obs_a.jsonl() != obs_b.jsonl()

    def test_observer_does_not_perturb_the_run(self):
        plan = FailurePlan.single(12.0, 1)
        _, traced = _traced_run(plan)
        untraced = Simulation(
            PROGRAM,
            3,
            params={"steps": 6},
            protocol=ApplicationDrivenProtocol(),
            failure_plan=plan,
            seed=0,
        ).run()
        assert trace_to_json(traced.trace) == trace_to_json(untraced.trace)
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
        obs, _ = _traced_run(FailurePlan.single(12.0, 1))
        ranked = [e for e in obs.events if e.rank is not None]
        assert ranked
        assert all(e.clock is not None for e in ranked)
        # Every runtime layer publishes, not just the engine.
        assert obs.bus.events_emitted > 100
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
        obs, result = _traced_run(FailurePlan.single(12.0, 1))
        rebuilt = trace_from_events(obs.events)
        assert trace_to_json(rebuilt) == trace_to_json(result.trace)

    def test_round_trip_through_file(self, tmp_path):
        obs, result = _traced_run()
        path = tmp_path / "events.jsonl"
        path.write_text(obs.jsonl())
        rebuilt = trace_from_events(read_event_log(path))
        assert trace_to_json(rebuilt) == trace_to_json(result.trace)

    def test_spacetime_from_log_matches_live_render(self, tmp_path):
        obs, result = _traced_run()
        path = tmp_path / "events.jsonl"
        path.write_text(obs.jsonl())
        offline = render_spacetime_from_log(path)
        live = render_spacetime(
            result.trace, cuts=result.trace.all_straight_cuts()
        )
        assert offline == live
        assert "#" in offline  # recovery-line members are marked


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
        from repro.runtime.engine import SimulationStats

        stats = SimulationStats()
        assert stats.max_fallback_depth == 0
        stats.fallback_depths.extend([0, 2, 1])
        assert stats.max_fallback_depth == 2
        assert stats.as_dict()["max_fallback_depth"] == 2

    def test_as_dict_includes_transport_and_fallback_counters(self):
        _, result = _traced_run(FailurePlan.single(12.0, 1))
        data = result.stats.as_dict()
        for key in (
            "frames_sent", "retransmits", "ack_frames",
            "recovery_fallbacks", "max_fallback_depth", "rollbacks",
        ):
            assert key in data
        assert json.dumps(data)  # JSON-serialisable
