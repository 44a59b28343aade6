"""Chaos-harness failure artifacts: the automatic diagnostic bundle.

A failing schedule must leave behind everything needed to diagnose it
offline: a vector-clock-stamped flight-recorder dump (convertible to a
Chrome trace), the schedule verbatim (replayable via the CLI's
``--fault-plan``), a ddmin-shrunk counterexample, and the verdict.
"""

import json

import pytest

from repro.obs import chrome_trace, read_event_log
from repro.runtime.chaos import (
    ChaosConfig,
    cell_label,
    chaos_sweep,
    draw_schedule,
    dump_failure_artifacts,
    run_schedule,
)

from ..chaos.broken_transport import broken_transport

#: The default chaos workload; the ``broken`` fixture runs it over the
#: broken transport.
CONFIG = ChaosConfig()


@pytest.fixture
def broken():
    with broken_transport():
        yield


def _failing_seed() -> int:
    for seed in range(30):
        plan = draw_schedule(seed, CONFIG)
        if run_schedule(plan, config=CONFIG).error is not None:
            return seed
    pytest.skip("no failing seed found with the broken transport")


@pytest.mark.usefixtures("broken")
class TestDumpFailureArtifacts:
    """The bundle a single failing schedule produces."""

    def test_bundle_contents(self, tmp_path):
        seed = _failing_seed()
        plan = draw_schedule(seed, CONFIG)
        paths = dump_failure_artifacts(
            plan, protocol="appl-driven", config=CONFIG,
            out_dir=tmp_path, prefix="case",
            max_shrink_runs=40,
        )
        assert set(paths) == {
            "flight_recorder", "schedule", "outcome", "shrunk",
        }
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0
        assert "FAIL" in paths["outcome"].read_text()

    def test_flight_dump_is_stamped_and_chrome_convertible(self, tmp_path):
        seed = _failing_seed()
        plan = draw_schedule(seed, CONFIG)
        paths = dump_failure_artifacts(
            plan, protocol="appl-driven", config=CONFIG,
            out_dir=tmp_path,
            shrink=False,
        )
        events = read_event_log(paths["flight_recorder"])
        assert events
        ranked = [e for e in events if e.rank is not None]
        assert ranked and all(e.clock is not None for e in ranked)
        doc = chrome_trace(events)
        assert json.loads(json.dumps(doc)) == doc
        assert any(e["ph"] == "i" for e in doc["traceEvents"])

    def test_schedule_json_replays_to_the_same_verdict(self, tmp_path):
        from repro.cli import _load_fault_plan

        seed = _failing_seed()
        plan = draw_schedule(seed, CONFIG)
        paths = dump_failure_artifacts(
            plan, protocol="appl-driven", config=CONFIG,
            out_dir=tmp_path, shrink=False,
        )
        data = json.loads(paths["schedule"].read_text())
        assert data == plan.to_json_dict()
        # The dumped schedule replays through the CLI's --fault-plan
        # loader to the same failing verdict.
        rebuilt = _load_fault_plan(str(paths["schedule"]), [])
        assert run_schedule(rebuilt, config=CONFIG).error is not None

    def test_shrunk_plan_still_fails_and_is_no_bigger(self, tmp_path):
        seed = _failing_seed()
        plan = draw_schedule(seed, CONFIG)
        paths = dump_failure_artifacts(
            plan, protocol="appl-driven", config=CONFIG,
            out_dir=tmp_path,
            max_shrink_runs=40,
        )
        shrunk = json.loads(paths["shrunk"].read_text())
        original = plan.to_json_dict()
        assert (
            len(shrunk.get("network_faults", []))
            + len(shrunk.get("crashes", []))
            <= len(original.get("network_faults", []))
            + len(original.get("crashes", []))
        )


class TestChaosSweepAutoDump:
    """chaos_sweep dumps artifacts for failing cells automatically."""

    @pytest.mark.usefixtures("broken")
    def test_failing_sweep_writes_artifacts(self, tmp_path):
        seed = _failing_seed()
        result = chaos_sweep(
            range(seed, seed + 1),
            protocols=("appl-driven",),
            config=CONFIG,
            artifacts_dir=tmp_path,
        )
        assert result.cells[cell_label(seed, "appl-driven")].error is not None
        dumped = sorted(p.name for p in tmp_path.iterdir())
        assert f"appl-driven-seed{seed}.flight.jsonl" in dumped
        assert f"appl-driven-seed{seed}.schedule.json" in dumped

    def test_passing_sweep_writes_nothing(self, tmp_path):
        result = chaos_sweep(
            range(1),
            protocols=("appl-driven",),
            artifacts_dir=tmp_path,
        )
        assert all(o.error is None for o in result.cells.values())
        assert not list(tmp_path.iterdir())
