"""Resilient executor: retries, quarantine, timeouts, resume.

Faults are injected through the campaign worker itself
(``tests/campaign/faulty.py``). The byte-identity invariant under test
throughout: the deterministic artifact is identical across ``jobs``
values AND across clean, retried, and resumed runs — quarantine
messages carry no PIDs, times, or host state.
"""

import json
import dataclasses
from dataclasses import replace

import pytest

from repro.campaign import executor
from repro.campaign.executor import (
    CellOutcome,
    ExecutorPolicy,
    backoff,
    run_campaign,
)
from repro.campaign.spec import quick_campaign
from repro.errors import SimulationError
from repro.obs.rollup import campaign_rollup
from repro.runtime.chaos import DIVERGED, ChaosConfig, chaos_sweep

from ..chaos.broken_transport import broken_transport
from .faulty import Fault, campaign_cell, transient

FAST = ExecutorPolicy(max_retries=2)

CRASHED = (
    "executor: quarantined after 3 attempt(s); last failure: worker crashed"
)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Tiny retry backoffs and tight deadline polling, for speed."""
    monkeypatch.setattr(executor, "BACKOFF_BASE", 0.001)
    monkeypatch.setattr(executor, "BACKOFF_MAX", 0.01)
    monkeypatch.setattr(executor, "POLL_INTERVAL", 0.01)


def _specs(n):
    return quick_campaign(steps=3)[:n]


def _faulted(monkeypatch, n, jobs, faults, policy=FAST, **kwargs):
    """The first *n* quick cells, ``faults`` by cell index; returns the
    specs, the faulted result and a clean run of the same specs."""
    specs = _specs(n)
    clean = run_campaign(specs)
    _inject(monkeypatch, {
        specs[index].label: fault for index, fault in faults.items()
    })
    return specs, run_campaign(specs, jobs, policy=policy, **kwargs), clean


class TestPolicy:
    def test_max_attempts(self):
        assert ExecutorPolicy(max_retries=2).max_attempts == 3
        assert ExecutorPolicy(max_retries=0).max_attempts == 1

    def test_policy_sets_only_timeout_and_retries(self):
        assert [
            field.name for field in dataclasses.fields(ExecutorPolicy)
        ] == [
            "timeout", "max_retries",
        ]

    def test_backoff_is_exponential_and_capped(self):
        assert backoff(1) == pytest.approx(0.05)
        assert backoff(2) == pytest.approx(0.1)
        assert backoff(6) == pytest.approx(1.6)
        assert backoff(7) == pytest.approx(2.0)  # capped
        assert backoff(10) == pytest.approx(2.0)

    @pytest.mark.parametrize("fields, message", [
        ({"max_retries": -1}, "retries must be >= 0, got -1"),
        ({"timeout": 0}, "timeout must be positive, got 0"),
        ({"timeout": -1.5}, "timeout must be positive, got -1.5"),
    ])
    def test_rejects_a_bad_budget(self, fields, message):
        with pytest.raises(SimulationError, match=message):
            ExecutorPolicy(**fields)

    @pytest.mark.parametrize("fields", [
        {"max_retries": 0},
        {"timeout": None, "max_retries": 2},  # the benchmark harness's
        {"timeout": 0.001},
    ])
    def test_accepts_the_smallest_valid_budget(self, fields):
        policy = ExecutorPolicy(**fields)
        for name, value in fields.items():
            assert getattr(policy, name) == value


@pytest.mark.usefixtures("fast_backoff")
class TestWorkerFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_raise_is_retried(self, jobs, monkeypatch, tmp_path):
        specs, result, clean = _faulted(
            monkeypatch, 4, jobs, {1: transient("raise", tmp_path)}
        )
        assert result.to_json() == clean.to_json()
        assert list(result.cells) == [spec.label for spec in specs]
        assert (result.executor.retries, result.executor.quarantines) == (
            1, 0
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_raise_is_retried_then_quarantined(
        self, jobs, monkeypatch
    ):
        specs, result, clean = _faulted(
            monkeypatch, 2, jobs, {1: Fault("raise")}
        )
        poisoned = specs[1].label
        assert result.cells == {
            specs[0].label: clean.cells[specs[0].label],
            poisoned: CellOutcome.failure(
                specs[1],
                "executor: quarantined after 3 attempt(s); last "
                "failure: InjectedError: injected raise",
            ),
        }
        assert (result.executor.retries, result.executor.quarantines) == (
            2, 1
        )
        assert result.timings[poisoned] == 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_policy_less_raise_is_quarantined_at_once(
        self, jobs, monkeypatch
    ):
        specs, result, _ = _faulted(
            monkeypatch, 2, jobs, {0: Fault("raise"), 1: Fault("raise")},
            policy=None,
        )
        assert [cell.error for cell in result.cells.values()] == [
            "executor: quarantined after 1 attempt(s); "
            "last failure: InjectedError: injected raise"
        ] * 2
        assert result.executor.retries == 0

    def test_retry_budget_sets_the_attempt_count(self, monkeypatch):
        specs, result, _ = _faulted(
            monkeypatch, 1, 1, {0: Fault("raise")},
            policy=ExecutorPolicy(max_retries=1),
        )
        assert result.cells[specs[0].label].error.startswith(
            "executor: quarantined after 2 attempt(s)"
        )
        assert (result.executor.retries, result.executor.quarantines) == (
            1, 1
        )

    def test_crash_quarantines_the_culprit_only(self, monkeypatch):
        retried = []
        specs, result, clean = _faulted(
            monkeypatch, 4, 2, {2: Fault("crash")},
            progress=lambda event: (
                retried.append(event.cell) if event.kind == "retry" else None
            ),
        )
        culprit = specs[2].label
        assert result.cells[culprit] == CellOutcome.failure(
            specs[2], CRASHED
        )
        # The bystanders the pool deaths interrupted re-ran in isolation,
        # uncharged: every retry is the culprit's.
        assert retried == [culprit, culprit]
        assert all(
            result.cells[spec.label] == clean.cells[spec.label]
            for spec in specs if spec.label != culprit
        )
        assert result.executor.quarantines == 1
        assert result.executor.worker_restarts >= 3

    def test_transient_crash_recovers(self, monkeypatch, tmp_path):
        _, result, clean = _faulted(
            monkeypatch, 4, 2, {1: transient("crash", tmp_path)}
        )
        assert result.to_json() == clean.to_json()
        assert result.executor.worker_restarts >= 1
        assert result.executor.quarantines == 0

    def test_hang_detected_by_parent_deadline(self, monkeypatch):
        specs, result, clean = _faulted(
            monkeypatch, 3, 2, {1: Fault("hang")},
            policy=ExecutorPolicy(timeout=0.4, max_retries=0),
        )
        assert result.cells[specs[1].label].error == (
            "executor: quarantined after 1 attempt(s); "
            "last failure: timed out after 0.4s"
        )
        for spec in (specs[0], specs[2]):
            assert result.cells[spec.label] == clean.cells[spec.label]
        assert result.executor.timeouts == 1
        assert result.executor.worker_restarts >= 1


class TestJournalResume:
    def test_resume_serves_finished_cells(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs(5)
        first = run_campaign(specs, journal_path=path)
        assert first.executor.resume_hits == 0
        second = run_campaign(specs, journal_path=path)
        assert second.to_json() == first.to_json()
        assert second.executor.resume_hits == 5
        assert all(t == 0.0 for t in second.timings.values())

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs(3)
        run_campaign(specs[:2], journal_path=path)
        result = run_campaign(specs, journal_path=path)
        assert result.to_json() == run_campaign(specs).to_json()
        assert result.executor.resume_hits == 2

    def test_hash_mismatch_forces_reexecution(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = _specs(1)[0]
        run_campaign([spec], journal_path=path)
        # Same label, different content → different content hash.
        edited = replace(spec, seed=spec.seed + 1)
        result = run_campaign([edited], journal_path=path)
        assert result.executor.resume_hits == 0
        assert result.cells[spec.label].spec_hash == edited.content_hash()

    def test_torn_tail_counted_and_resume_still_correct(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs(3)
        run_campaign(specs[:2], journal_path=path)
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "cell", "key": "x"')  # SIGKILL mid-append
        result = run_campaign(specs, journal_path=path)
        assert result.to_json() == run_campaign(specs).to_json()
        assert result.executor.resume_hits == 2
        assert result.executor.journal_torn_entries == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_is_journalled_before_its_cell_done_event(
        self, jobs, tmp_path
    ):
        # The benchmark times a cell from one cell-done event to the
        # next, so the journal write must fall inside that interval.
        path = tmp_path / "journal.jsonl"
        seen = []

        def progress(event):
            if event.kind == "cell-done":
                lines = path.read_text().splitlines()
                seen.append((event.cell, json.loads(lines[-1])["key"]))

        run_campaign(_specs(3), jobs, journal_path=path, progress=progress)
        assert len(seen) == 3
        assert all(cell == key for cell, key in seen)


def _inject(monkeypatch, faults: dict) -> None:
    """Make every campaign cell fire ``faults[label]`` first."""
    monkeypatch.setattr(executor, "_campaign_cell", campaign_cell(faults))


@pytest.mark.usefixtures("fast_backoff")
class TestCampaignResilience:
    def test_faulted_artifact_identical_across_jobs(
        self, monkeypatch, tmp_path
    ):
        specs = quick_campaign(steps=3)[:4]
        clean = run_campaign(specs, jobs=1)
        # A serial run cannot survive a crash, so jobs=1 meets only the
        # transient raise; the pooled run's crashed cell must read as
        # exactly that serial artifact with the cell quarantined.
        _inject(monkeypatch, {specs[2].label: transient("raise", tmp_path)})
        serial = run_campaign(specs, jobs=1, policy=FAST)
        _inject(monkeypatch, {
            specs[1].label: Fault("crash"),
            specs[2].label: transient("raise", tmp_path, "pooled"),
        })
        pooled = run_campaign(specs, jobs=2, policy=FAST)
        assert serial.to_json() == clean.to_json()
        assert serial.executor.retries == 1
        serial.cells[specs[1].label] = CellOutcome.failure(specs[1], CRASHED)
        assert pooled.to_json() == serial.to_json()
        assert pooled.executor.quarantines == 1

    def test_quarantined_cell_is_a_failure_not_an_exception(
        self, monkeypatch
    ):
        specs = quick_campaign(steps=3)[:2]
        _inject(monkeypatch, {specs[0].label: Fault("crash")})
        result = run_campaign(specs, jobs=2, policy=FAST)
        assert [cell.label for cell in result.failures] == [specs[0].label]
        assert result.executor.quarantines == 1

    def test_resume_artifact_identical_to_clean(self, tmp_path):
        specs = quick_campaign(steps=3)[:4]
        path = tmp_path / "journal.jsonl"
        clean = run_campaign(specs, jobs=1)
        first = run_campaign(specs, jobs=1, journal_path=path)
        resumed = run_campaign(specs, jobs=2, journal_path=path)
        assert first.to_json() == clean.to_json()
        assert resumed.to_json() == clean.to_json()
        assert resumed.executor.resume_hits == len(specs)
        assert all(t == 0.0 for t in resumed.timings.values())

    def test_rollup_diagnostics_carry_the_counters(self, tmp_path):
        specs = quick_campaign(steps=3)[:2]
        path = tmp_path / "j.jsonl"
        first = campaign_rollup(run_campaign(specs, journal_path=path))
        resumed = run_campaign(specs, journal_path=path)
        diagnostics = campaign_rollup(resumed)["diagnostics"]
        assert first["diagnostics"]["executor"]["resume_hits"] == 0
        assert diagnostics["executor"] == resumed.executor.as_dict()
        assert diagnostics["executor"]["resume_hits"] == 2
        assert diagnostics["jobs"] == 1
        assert "executor" not in resumed.to_json()


@pytest.mark.usefixtures("fast_backoff")
class TestChaosSweepResilience:
    CONFIG = ChaosConfig(n_processes=3, steps=5, horizon=30.0)

    def _sweep(self, config=CONFIG, **options):
        return chaos_sweep(
            range(3), protocols=("appl-driven",), config=config, jobs=1,
            **options,
        )

    def test_executor_fault_quarantines_one_cell(self, monkeypatch):
        _inject(monkeypatch, {"seed1/appl-driven": Fault("raise")})
        result = self._sweep(policy=FAST)
        bad = result.cells["seed1/appl-driven"]
        assert bad.error.startswith("executor: quarantined after")
        assert result.cells["seed0/appl-driven"].error is None
        assert result.cells["seed2/appl-driven"].error is None
        assert result.executor.quarantines == 1

    def test_transient_executor_fault_retries_to_the_clean_artifact(
        self, monkeypatch, tmp_path
    ):
        clean = self._sweep()
        _inject(
            monkeypatch, {"seed1/appl-driven": transient("raise", tmp_path)}
        )
        retried = self._sweep(policy=FAST)
        assert retried.executor.retries == 1
        assert retried.to_json() == clean.to_json()

    def test_journal_resume_round_trip(self, tmp_path):
        path = tmp_path / "chaos.jsonl"
        clean = self._sweep()
        first = self._sweep(journal_path=path)
        resumed = self._sweep(journal_path=path)
        assert first.to_json() == clean.to_json()
        assert resumed.to_json() == clean.to_json()
        assert list(resumed.cells) == list(clean.cells)
        assert resumed.executor.resume_hits == 3

    def test_resume_reapplies_the_final_state_verdict(self, tmp_path):
        # The journal keeps the worker's outcome; the twin comparison
        # runs again on resume, so diverged cells stay diverged.
        path = tmp_path / "broken.jsonl"
        with broken_transport():
            first = self._sweep(journal_path=path)
            resumed = self._sweep(journal_path=path)
        assert resumed.executor.resume_hits == 3
        assert resumed.to_json() == first.to_json()
        assert DIVERGED in {cell.error for cell in first.cells.values()}

    def test_judge_error_is_unexpected_not_retried(self, monkeypatch):
        # A bug in the verdict is recorded like any campaign cell's:
        # once, as an ``unexpected:`` outcome, never retried.
        from repro.runtime import chaos

        def broken_judge(spec, sim, result):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(chaos, "judge", broken_judge)
        result = chaos_sweep(
            range(1), protocols=("appl-driven",), config=self.CONFIG,
            policy=ExecutorPolicy(max_retries=2),
        )
        assert result.cells["seed0/appl-driven"].error == (
            "unexpected: RecursionError: maximum recursion depth exceeded"
        )
        assert result.executor.retries == 0
        assert result.executor.quarantines == 0
