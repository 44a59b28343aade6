"""Resilient executor: retries, quarantine, timeouts, resume.

Faults are injected through the worker itself (``tests/campaign/
faulty.py``). The byte-identity invariant under test throughout: the
deterministic artifact is identical across ``jobs`` values AND across
clean, retried, and resumed runs — quarantine messages carry no PIDs,
times, or host state.
"""

from dataclasses import replace

import pytest

from repro.campaign import executor
from repro.campaign.executor import (
    CellOutcome,
    ExecutorPolicy,
    ExecutorStats,
    JournalCodec,
    run_cells,
    run_campaign,
)
from repro.campaign.journal import CampaignJournal
from repro.campaign.spec import quick_campaign
from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.runtime.chaos import DIVERGED, ChaosConfig, chaos_sweep
from repro.runtime.transport import TransportConfig

from .faulty import Fault, campaign_cell, double, transient

#: A fast policy for tests: tiny backoffs, tight polling.
FAST = ExecutorPolicy(
    max_retries=2, backoff_base=0.001, backoff_max=0.01, poll_interval=0.01
)

CRASHED = (
    "executor: quarantined after 3 attempt(s); last failure: worker crashed"
)


def _double(payload):
    """Module-level so the process pool can pickle it."""
    return payload * 2


def _quarantine_dict(key, _payload, message, _error):
    """Test quarantine factory: a structured error result."""
    return {"key": key, "error": message}


#: Journal codec for plain-int test cells: the payload is its own hash.
INT_CODEC = JournalCodec(
    key=lambda key, _payload: str(key),
    cell_hash=lambda _key, payload: f"payload={payload}",
    encode=lambda result: {"v": result},
    decode=lambda data: data["v"],
)


def _run(items, jobs, worker=_double, **kwargs):
    """run_cells with the fast policy, the dict quarantine, and stats."""
    stats = ExecutorStats()
    kwargs.setdefault("policy", FAST)
    kwargs.setdefault("quarantine", _quarantine_dict)
    kwargs.setdefault("codec", INT_CODEC)
    results, timings = run_cells(
        items, worker, jobs=jobs, stats=stats, **kwargs
    )
    return results, timings, stats


def _faulted(n, jobs, faults, **kwargs):
    """Cells ``0..n-1`` through the faulty worker, ``faults`` by key."""
    items = [(key, (key, faults.get(key))) for key in range(n)]
    return _run(items, jobs, worker=double, **kwargs)


class TestPolicy:
    def test_max_attempts(self):
        assert ExecutorPolicy(max_retries=2).max_attempts == 3
        assert ExecutorPolicy(max_retries=0).max_attempts == 1

    def test_backoff_is_exponential_and_capped(self):
        policy = ExecutorPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(10) == pytest.approx(0.3)

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


class TestWorkerFaults:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_raise_is_retried(self, jobs, tmp_path):
        results, _, stats = _faulted(
            4, jobs, {1: transient("raise", tmp_path)}
        )
        assert results == {n: 2 * n for n in range(4)}
        assert list(results) == list(range(4))
        assert (stats.retries, stats.quarantines) == (1, 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poison_raise_is_retried_then_quarantined(self, jobs):
        results, timings, stats = _faulted(2, jobs, {1: Fault("raise")})
        assert results == {
            0: 0,
            1: {
                "key": 1,
                "error": (
                    "executor: quarantined after 3 attempt(s); last "
                    "failure: InjectedError: injected raise"
                ),
            },
        }
        assert (stats.retries, stats.quarantines) == (2, 1)
        assert timings[1] == 0.0

    def test_real_worker_exception_counts_and_quarantines(self):
        results, _, stats = _run(
            [("a", "x")], 1,
            policy=ExecutorPolicy(max_retries=1, backoff_base=0.001),
        )
        # "x" * 2 works, so force a genuine failure instead:
        assert results == {"a": "xx"}
        results, _, stats = _run(
            [("a", None)], 1,
            policy=ExecutorPolicy(max_retries=1, backoff_base=0.001),
        )
        assert "TypeError" in results["a"]["error"]
        assert stats.quarantines == 1
        assert stats.retries == 1

    def test_crash_quarantines_the_culprit_only(self):
        retried = []
        results, _, stats = _faulted(
            4, 2, {2: Fault("crash")},
            progress=lambda event: (
                retried.append(event.cell) if event.kind == "retry" else None
            ),
        )
        assert results[2] == {"key": 2, "error": CRASHED}
        # The bystanders the pool deaths interrupted re-ran in isolation,
        # uncharged: every retry is the culprit's.
        assert retried == ["2", "2"]
        assert all(results[n] == 2 * n for n in (0, 1, 3))
        assert stats.quarantines == 1
        assert stats.worker_restarts >= 3

    def test_transient_crash_recovers(self, tmp_path):
        results, _, stats = _faulted(
            4, 2, {1: transient("crash", tmp_path)}
        )
        assert results == {n: 2 * n for n in range(4)}
        assert stats.worker_restarts >= 1
        assert stats.quarantines == 0

    def test_hang_detected_by_parent_deadline(self):
        policy = ExecutorPolicy(
            timeout=0.4, max_retries=0,
            backoff_base=0.001, poll_interval=0.01,
        )
        results, _, stats = _faulted(
            3, 2, {1: Fault("hang")}, policy=policy
        )
        assert results[1]["error"] == (
            "executor: quarantined after 1 attempt(s); "
            "last failure: timed out after 0.4s"
        )
        assert results[0] == 0 and results[2] == 4
        assert stats.timeouts == 1
        assert stats.worker_restarts >= 1


class TestJournalResume:
    def test_resume_serves_finished_cells(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        items = [(n, n) for n in range(5)]
        with CampaignJournal(path) as journal:
            first, _, stats1 = _run(items, 1, journal=journal)
        assert stats1.resume_hits == 0
        with CampaignJournal(path) as journal:
            second, timings, stats2 = _run(items, 1, journal=journal)
        assert second == first
        assert stats2.resume_hits == 5
        assert all(t == 0.0 for t in timings.values())

    def test_partial_journal_runs_only_the_rest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _run([(0, 0), (1, 1)], 1, journal=journal)
        with CampaignJournal(path) as journal:
            results, _, stats = _run(
                [(0, 0), (1, 1), (2, 2)], 1, journal=journal
            )
        assert results == {0: 0, 1: 2, 2: 4}
        assert stats.resume_hits == 2

    def test_hash_mismatch_forces_reexecution(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _run([(0, 1)], 1, journal=journal)
        # Same key, different payload → different content hash.
        with CampaignJournal(path) as journal:
            results, _, stats = _run([(0, 7)], 1, journal=journal)
        assert results == {0: 14}
        assert stats.resume_hits == 0

    def test_torn_tail_counted_and_resume_still_correct(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _run([(0, 0), (1, 1)], 1, journal=journal)
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "cell", "key": "2"')  # SIGKILL mid-append
        with CampaignJournal(path) as journal:
            results, _, stats = _run(
                [(0, 0), (1, 1), (2, 2)], 1, journal=journal
            )
        assert results == {0: 0, 1: 2, 2: 4}
        assert stats.resume_hits == 2
        assert stats.journal_torn_entries == 1

    def test_journal_requires_full_codec(self):
        journal = CampaignJournal("unused.jsonl")
        with pytest.raises(SimulationError, match="journal needs"):
            run_cells(
                [("a", 1)], _double, jobs=1, journal=journal,
                quarantine=_quarantine_dict,
            )


def _inject(monkeypatch, faults: dict) -> None:
    """Make every campaign cell fire ``faults[label]`` first."""
    monkeypatch.setattr(executor, "_campaign_cell", campaign_cell(faults))


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

    def test_registry_receives_executor_counters(self, tmp_path):
        specs = quick_campaign(steps=3)[:2]
        registry = MetricsRegistry()
        run_campaign(
            specs, jobs=1, journal_path=tmp_path / "j.jsonl",
            registry=registry,
        )
        counters = registry.as_dict()
        assert counters["executor.resume_hits"]["value"] == 0
        assert counters["executor.quarantines"]["value"] == 0
        registry2 = MetricsRegistry()
        run_campaign(
            specs, jobs=1, journal_path=tmp_path / "j.jsonl",
            registry=registry2,
        )
        assert registry2.as_dict()["executor.resume_hits"]["value"] == 2

    def test_diagnostics_dict_carries_counters(self):
        specs = quick_campaign(steps=3)[:1]
        result = run_campaign(specs, jobs=1, policy=FAST)
        diag = result.diagnostics_dict()
        assert diag["jobs"] == 1
        assert diag["executor"]["quarantines"] == 0
        assert "executor" not in result.to_json()


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
        broken = replace(self.CONFIG, transport=TransportConfig(dedup=False))
        path = tmp_path / "broken.jsonl"
        first = self._sweep(config=broken, journal_path=path)
        resumed = self._sweep(config=broken, journal_path=path)
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
