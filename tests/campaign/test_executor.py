"""Campaign executor: merge determinism, parallel byte-identity, errors,
and the collector pause every cell runs under."""

import gc
import hashlib
import json
import sys
import tracemalloc
from dataclasses import replace

import pytest

from repro.campaign import executor
from repro.campaign.executor import (
    CampaignResult,
    CellOutcome,
    ExecutorPolicy,
    ExecutorStats,
    _attempt_call,
    _campaign_cell,
    _charge,
    resolve_jobs,
    run_campaign,
)
from repro.campaign.spec import ScenarioSpec, quick_campaign
from repro.errors import SimulationError
from repro.lang.programs import program_source
from repro.runtime.chaos import ChaosConfig, chaos_sweep


def _explode(payload):
    """Module-level worker that always raises (picklable)."""
    raise ValueError(f"boom on {payload}")


def _collector_enabled(payload):
    """Module-level worker reporting whether the cyclic collector runs."""
    return gc.isenabled()


def _engine_error(payload):
    """Module-level worker raising the engine's own error type."""
    raise SimulationError(f"engine error on {payload}")


def _exit(payload):
    """Module-level worker that exits the interpreter (``sys.exit``)."""
    sys.exit(f"exit on {payload}")


def _interrupt(payload):
    """Module-level worker interrupted mid-cell, as by Ctrl-C."""
    raise KeyboardInterrupt


def _collector_cell(spec, judge=None):
    """Module-level campaign worker reporting whether the cyclic
    collector runs."""
    return CellOutcome(
        label=spec.label, spec_hash="",
        stats={"completed": True, "collecting": gc.isenabled()},
    )


def _relabelled(*labels):
    """One tiny spec per label."""
    spec = quick_campaign(steps=3)[0]
    return [replace(spec, label=label) for label in labels]


class TestCellKeys:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(SimulationError, match="unique labels"):
            run_campaign(_relabelled("a", "a"))

    def test_duplicate_labels_named_in_message(self):
        with pytest.raises(SimulationError) as excinfo:
            run_campaign(_relabelled("a", "b", "a", "c", "c"))
        message = str(excinfo.value)
        assert "'a'" in message and "'c'" in message
        assert "'b'" not in message

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_submission_order(self, jobs):
        result = run_campaign(_relabelled("c", "a", "b"), jobs)
        assert list(result.cells) == ["c", "a", "b"]
        assert list(result.timings) == ["c", "a", "b"]
        assert all(t >= 0.0 for t in result.timings.values())

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(-2) >= 1


def small_campaign() -> list[ScenarioSpec]:
    specs = quick_campaign(steps=4)[:3]
    # One observed cell: the JSONL event log must survive the worker
    # boundary and still be byte-identical across worker counts.
    observed = ScenarioSpec.from_json_dict(
        {**specs[0].to_json_dict(), "label": "observed", "observe": True}
    )
    return [*specs, observed]


class TestRunCampaign:
    def test_serial_campaign_runs_clean(self):
        specs = small_campaign()
        result = run_campaign(specs, jobs=1)
        assert list(result.cells) == [spec.label for spec in specs]
        assert result.failures == []
        assert all(cell.ok for cell in result.cells.values())
        observed = result.cells["observed"]
        assert observed.events_jsonl
        assert result.cells[specs[0].label].events_jsonl is None

    def test_parallel_json_byte_identical_to_serial(self):
        specs = small_campaign()
        serial = run_campaign(specs, jobs=1)
        parallel = run_campaign(specs, jobs=2)
        assert parallel.to_json() == serial.to_json()
        assert list(parallel.cells) == list(serial.cells)

    def test_spec_hash_recorded(self):
        spec = quick_campaign(steps=4)[0]
        result = run_campaign([spec])
        assert result.cells[spec.label].spec_hash == spec.content_hash()

    def test_failing_cell_is_reported_not_raised(self):
        # A crash on a rank the cell does not have no longer gets this
        # far: the spec itself refuses it (test_spec.py's BAD_CELLS).
        good = quick_campaign(steps=4)[0]
        bad = ScenarioSpec(
            label="boom",
            program=program_source("ring_pipeline"),
            n_processes=3,
            params={"steps": 6},
            max_steps=5,
        )
        result = run_campaign([good, bad])
        assert result.cells["boom"].error.startswith("SimulationError:")
        assert not result.cells["boom"].ok
        assert result.failures == [result.cells["boom"]]
        assert result.cells[good.label].ok
        # The artifact still serialises with the failure embedded.
        assert '"error": "SimulationError' in result.to_json()

    def test_timings_excluded_from_artifact(self):
        spec = quick_campaign(steps=4)[0]
        result = run_campaign([spec])
        artifact = result.to_json()
        assert result.timings  # collected...
        assert "timings" not in artifact  # ...but never serialised

    def test_cell_outcome_roundtrips_to_json(self):
        outcome = CellOutcome(
            label="x",
            spec_hash="deadbeef",
            stats={"completed": True},
            final_env={1: {"v": 2}, 0: {"v": 1}},
            completion_time=3.5,
        )
        data = outcome.to_json_dict()
        assert list(data["final_env"]) == ["0", "1"]
        assert data["completion_time"] == 3.5

    def test_empty_campaign(self):
        result = run_campaign([])
        assert result.cells == {}
        assert result.to_json() == CampaignResult().to_json()

    def test_unexpected_exception_captured_in_outcome(self, monkeypatch):
        spec = quick_campaign(steps=4)[0]
        monkeypatch.setattr(
            ScenarioSpec,
            "build",
            lambda self, observer=None: (_ for _ in ()).throw(
                RecursionError("maximum recursion depth exceeded")
            ),
        )
        result = run_campaign([spec], jobs=1)
        outcome = result.cells[spec.label]
        assert outcome.error == (
            "unexpected: RecursionError: maximum recursion depth exceeded"
        )
        assert not outcome.ok
        # The artifact serialises the captured failure like any other.
        assert '"error": "unexpected: RecursionError' in result.to_json()

    def test_cell_outcome_json_roundtrip_exact(self):
        outcome = CellOutcome(
            label="x",
            spec_hash="deadbeef",
            stats={"completed": True},
            final_env={1: {"v": 2}, 0: {"v": 1}},
            completion_time=3.5,
        )
        rebuilt = CellOutcome.from_json_dict(outcome.to_json_dict())
        assert rebuilt == outcome
        assert rebuilt.to_json_dict() == outcome.to_json_dict()


class TestArtifact:
    """The artifact indexes each event log by digest; the journal record
    (:meth:`CellOutcome.to_json_dict`) keeps the log itself."""

    def test_rows_carry_the_digest_of_each_log(self):
        result = run_campaign(small_campaign())
        rows = {
            row["label"]: row for row in json.loads(result.to_json())["cells"]
        }
        for label, cell in result.cells.items():
            row = rows[label]
            assert "events_jsonl" not in row
            assert cell.to_json_dict()["events_jsonl"] == cell.events_jsonl
            expected = (
                None if cell.events_jsonl is None
                else hashlib.sha256(cell.events_jsonl.encode()).hexdigest()
            )
            assert row["event_sha256"] == expected
            assert set(row) == set(cell.to_json_dict()) - {
                "events_jsonl"
            } | {"event_sha256"}
        assert rows["observed"]["event_sha256"] is not None

    def test_a_row_without_a_log_keeps_its_size(self):
        specs = small_campaign()
        cell = run_campaign(specs).cells[specs[0].label]
        assert cell.events_jsonl is None
        assert len(json.dumps(cell.artifact_row())) == len(
            json.dumps(cell.to_json_dict())
        )

    def test_a_changed_log_changes_the_artifact(self):
        result = run_campaign(small_campaign())
        before = result.to_json()
        observed = result.cells["observed"]
        result.cells["observed"] = replace(
            observed, events_jsonl=observed.events_jsonl + "\n"
        )
        assert result.to_json() != before

    def test_encoding_holds_no_copy_of_the_logs(self):
        # Pins the memory the artifact saves: embedding the logs made
        # the encoding's peak exceed the logs' summed size. Hashing a
        # log encodes it whole, so the bound is the largest one log.
        result = run_campaign(
            [replace(spec, observe=True) for spec in quick_campaign(steps=60)]
        )
        logs = [len(cell.events_jsonl) for cell in result.cells.values()]
        assert sum(logs) > 1.5 * max(logs)
        tracemalloc.start()
        try:
            result.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * max(logs), (peak, logs)


class TestCharge:
    """The one retry/quarantine step both runners charge failures to."""

    POLICY = ExecutorPolicy(max_retries=3)
    SPEC = _relabelled("k")[0]

    def _charge(self, attempt, policy=POLICY):
        stats = ExecutorStats()
        emitted, notes = [], []

        def notify(kind, **fields):
            notes.append((kind, fields))

        done = _charge(
            self.SPEC, attempt, "worker crashed", policy, stats,
            lambda *args: emitted.append(args), notify,
        )
        return done, stats, emitted, notes

    @pytest.mark.parametrize("attempt", [1, 2, 3])
    def test_within_budget_counts_a_retry(self, attempt):
        done, stats, emitted, notes = self._charge(attempt)
        assert not done
        assert (stats.retries, stats.quarantines) == (1, 0)
        assert notes == [("retry", {"cell": "k", "attempt": attempt + 1})]
        assert emitted == []

    @pytest.mark.parametrize("max_retries", [0, 3])
    def test_at_budget_quarantines_with_fixed_text(self, max_retries):
        policy = ExecutorPolicy(max_retries=max_retries)
        attempt = policy.max_attempts
        done, stats, emitted, notes = self._charge(attempt, policy)
        assert done
        assert (stats.retries, stats.quarantines) == (0, 1)
        assert notes == [("quarantine", {"cell": "k"})]
        message = (
            f"executor: quarantined after {attempt} attempt(s); "
            "last failure: worker crashed"
        )
        assert emitted == [(
            self.SPEC, CellOutcome.failure(self.SPEC, message), 0.0, None,
            attempt,
        )]


@pytest.fixture
def restore_collector():
    """Puts the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """A cell runs with the cyclic collector paused; the caller's state
    comes back on every way out of the worker shim."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_sees_the_collector_paused(self, jobs, monkeypatch):
        monkeypatch.setattr(executor, "_campaign_cell", _collector_cell)
        result = run_campaign(_relabelled("a", "b"), jobs)
        assert {
            label: cell.stats["collecting"]
            for label, cell in result.cells.items()
        } == {"a": False, "b": False}
        assert gc.isenabled()

    def test_no_collector_pass_while_a_campaign_cell_runs(self):
        # A pass is inside a cell when the allocation that triggered it
        # was made under ``_campaign_cell``.
        inside = []

        def probe(phase, info):
            if phase != "start":
                return
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is _campaign_cell.__code__:
                    inside.append(info["generation"])
                    return
                frame = frame.f_back

        specs = [
            ScenarioSpec(
                label=f"stencil_1d/{index}",
                program=program_source("stencil_1d"),
                n_processes=16, params={"steps": 8}, seed=index,
            )
            for index in range(2)
        ]
        gc.callbacks.append(probe)
        try:
            result = run_campaign(specs)
        finally:
            gc.callbacks.remove(probe)
        assert all(cell.ok for cell in result.cells.values())
        assert inside == []

    @pytest.mark.usefixtures("restore_collector")
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "worker, raised",
        [
            (_collector_enabled, None),
            (_engine_error, SimulationError),
            (_explode, ValueError),
            (_exit, SystemExit),
            (_interrupt, KeyboardInterrupt),
        ],
        ids=["return", "repro-error", "unexpected", "exit", "interrupt"],
    )
    def test_every_exit_restores_the_collector(self, enabled, worker, raised):
        (gc.enable if enabled else gc.disable)()
        if raised is None:
            result, _, _ = _attempt_call(worker, 0)
            assert result is False
        else:
            with pytest.raises(raised):
                _attempt_call(worker, 0)
        assert gc.isenabled() is enabled


class TestChaosSweepJobs:
    def test_parallel_sweep_identical_to_serial(self):
        config = ChaosConfig(n_processes=3, steps=6, horizon=30.0)
        serial = chaos_sweep(
            range(4), protocols=("appl-driven",), config=config, jobs=1
        )
        parallel = chaos_sweep(
            range(4), protocols=("appl-driven",), config=config, jobs=2
        )
        assert parallel.to_json() == serial.to_json()
        assert parallel.cells == serial.cells
        assert list(parallel.cells) == [
            f"seed{seed}/appl-driven" for seed in range(4)
        ]
