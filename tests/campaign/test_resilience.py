"""Resilient executor: retries, quarantine, fault injection, resume.

The byte-identity invariant under test throughout: the deterministic
artifact is identical across ``jobs`` values AND across clean, retried,
and resumed runs — quarantine messages carry no PIDs, times, or host
state.
"""

from dataclasses import replace

import pytest

from repro.campaign.executor import (
    ExecutorPolicy,
    ExecutorStats,
    JournalCodec,
    run_cells,
    run_campaign,
)
from repro.campaign.faults import (
    ALWAYS,
    ExecutorFaultPlan,
    WorkerFault,
    draw_executor_faults,
    parse_worker_fault,
)
from repro.campaign.journal import CampaignJournal
from repro.campaign.spec import quick_campaign
from repro.errors import ExecutorQuarantineError, SimulationError
from repro.obs import MetricsRegistry
from repro.runtime.chaos import DIVERGED, ChaosConfig, chaos_sweep
from repro.runtime.transport import TransportConfig

#: A fast policy for tests: tiny backoffs, tight polling.
FAST = ExecutorPolicy(
    max_retries=2, backoff_base=0.001, backoff_max=0.01, poll_interval=0.01
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


def _run(items, jobs, **kwargs):
    """run_cells with the fast policy, the dict quarantine, and stats."""
    stats = ExecutorStats()
    kwargs.setdefault("policy", FAST)
    kwargs.setdefault("quarantine", _quarantine_dict)
    kwargs.setdefault("codec", INT_CODEC)
    results, timings = run_cells(
        items, _double, jobs=jobs, stats=stats, **kwargs
    )
    return results, timings, stats


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


class TestFaultPlans:
    def test_draw_is_seed_deterministic(self):
        keys = [f"cell{i}" for i in range(32)]
        one = draw_executor_faults(keys, seed=7, probability=0.5)
        two = draw_executor_faults(keys, seed=7, probability=0.5)
        assert one.faults == two.faults
        other = draw_executor_faults(keys, seed=8, probability=0.5)
        assert one.faults != other.faults

    def test_draw_probability_extremes(self):
        keys = ["a", "b", "c"]
        assert len(draw_executor_faults(keys, seed=0, probability=0.0)) == 0
        assert len(draw_executor_faults(keys, seed=0, probability=1.0)) == 3

    def test_fault_validation(self):
        with pytest.raises(SimulationError, match="unknown executor fault"):
            WorkerFault(kind="melt")
        with pytest.raises(SimulationError, match=">= 1"):
            WorkerFault(kind="crash", until_attempt=0)

    def test_fires_window(self):
        fault = WorkerFault(kind="raise", until_attempt=2)
        assert fault.fires(1) and fault.fires(2)
        assert not fault.fires(3)
        assert WorkerFault(kind="raise").fires(ALWAYS)

    def test_parse_worker_fault(self):
        key, fault = parse_worker_fault("ring/appl-driven:crash")
        assert key == "ring/appl-driven"
        assert fault == WorkerFault(kind="crash")
        key, fault = parse_worker_fault("a:b:raise:2")
        assert key == "a:b"
        assert fault == WorkerFault(kind="raise", until_attempt=2)

    def test_parse_worker_fault_rejects_garbage(self):
        with pytest.raises(SimulationError, match="KEY:KIND"):
            parse_worker_fault("no-kind-here")
        with pytest.raises(SimulationError, match="non-empty"):
            parse_worker_fault(":crash")


class TestSerialResilience:
    def test_transient_raise_is_retried(self):
        plan = ExecutorFaultPlan(
            {"b": WorkerFault(kind="raise", until_attempt=1)}
        )
        results, _, stats = _run([("a", 1), ("b", 2)], 1, fault_plan=plan)
        assert results == {"a": 2, "b": 4}
        assert stats.retries == 1
        assert stats.quarantines == 0

    def test_poison_raise_is_quarantined(self):
        plan = ExecutorFaultPlan({"b": WorkerFault(kind="raise")})
        results, timings, stats = _run(
            [("a", 1), ("b", 2)], 1, fault_plan=plan
        )
        assert results["a"] == 2
        assert results["b"] == {
            "key": "b",
            "error": (
                "executor: quarantined after 3 attempt(s); last failure: "
                "InjectedWorkerError: injected executor fault: raise"
            ),
        }
        assert stats.quarantines == 1
        assert stats.retries == 2
        assert timings["b"] == 0.0

    def test_poison_crash_is_quarantined(self):
        plan = ExecutorFaultPlan({"a": WorkerFault(kind="crash")})
        results, _, stats = _run([("a", 1)], 1, fault_plan=plan)
        assert results["a"]["error"] == (
            "executor: quarantined after 3 attempt(s); "
            "last failure: worker crashed"
        )
        assert stats.quarantines == 1

    def test_hang_uses_timeout_reason(self):
        plan = ExecutorFaultPlan({"a": WorkerFault(kind="hang")})
        policy = ExecutorPolicy(
            timeout=0.5, max_retries=0, backoff_base=0.001
        )
        results, _, stats = _run(
            [("a", 1)], 1, fault_plan=plan, policy=policy
        )
        assert results["a"]["error"] == (
            "executor: quarantined after 1 attempt(s); "
            "last failure: timed out after 0.5s"
        )
        assert stats.timeouts == 1

    def test_hang_without_timeout_reads_hung(self):
        plan = ExecutorFaultPlan({"a": WorkerFault(kind="hang")})
        policy = ExecutorPolicy(max_retries=0, backoff_base=0.001)
        results, _, _ = _run([("a", 1)], 1, fault_plan=plan, policy=policy)
        assert "last failure: hung" in results["a"]["error"]

    def test_quarantine_raises_without_factory(self):
        plan = ExecutorFaultPlan({"a": WorkerFault(kind="raise")})
        with pytest.raises(ExecutorQuarantineError, match="'a'"):
            run_cells(
                [("a", 1)], _double, jobs=1,
                policy=FAST, fault_plan=plan,
            )

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


class TestPoolResilience:
    def test_transient_raise_matches_clean_run(self):
        items = [(n, n) for n in range(6)]
        clean, _ = run_cells(items, _double, jobs=1)
        plan = ExecutorFaultPlan(
            {3: WorkerFault(kind="raise", until_attempt=1)}
        )
        results, _, stats = _run(items, 2, fault_plan=plan)
        assert results == clean
        assert list(results) == list(clean)
        assert stats.retries == 1

    def test_poison_crash_quarantined_byte_identical_across_jobs(self):
        items = [(n, n) for n in range(4)]
        plan = ExecutorFaultPlan({2: WorkerFault(kind="crash")})
        serial, _, _ = _run(items, 1, fault_plan=plan)
        pooled, _, stats = _run(items, 2, fault_plan=plan)
        assert pooled == serial
        assert pooled[2]["error"] == (
            "executor: quarantined after 3 attempt(s); "
            "last failure: worker crashed"
        )
        assert stats.worker_restarts >= 1
        # Innocent bystanders all completed despite the pool deaths.
        assert all(pooled[n] == 2 * n for n in (0, 1, 3))

    def test_transient_crash_recovers(self):
        items = [(n, n) for n in range(4)]
        plan = ExecutorFaultPlan(
            {1: WorkerFault(kind="crash", until_attempt=1)}
        )
        results, _, stats = _run(items, 2, fault_plan=plan)
        assert results == {n: 2 * n for n in range(4)}
        assert stats.worker_restarts >= 1
        assert stats.quarantines == 0

    def test_hang_detected_by_parent_deadline(self):
        items = [(n, n) for n in range(3)]
        plan = ExecutorFaultPlan(
            {1: WorkerFault(kind="hang", hang_seconds=60.0)}
        )
        policy = ExecutorPolicy(
            timeout=0.4, max_retries=0,
            backoff_base=0.001, poll_interval=0.01,
        )
        results, _, stats = _run(
            items, 2, fault_plan=plan, policy=policy
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
            run_cells([("a", 1)], _double, jobs=1, journal=journal)


class TestCampaignResilience:
    def test_fault_plan_artifact_identical_across_jobs(self):
        specs = quick_campaign(steps=3)[:4]
        plan = ExecutorFaultPlan({
            specs[1].label: WorkerFault(kind="crash"),
            specs[2].label: WorkerFault(kind="raise", until_attempt=1),
        })
        serial = run_campaign(
            specs, jobs=1, policy=FAST, fault_plan=plan
        )
        pooled = run_campaign(
            specs, jobs=2, policy=FAST, fault_plan=plan
        )
        clean = run_campaign(specs, jobs=1)
        assert pooled.to_json() == serial.to_json()
        assert serial.cells[specs[1].label].error == (
            "executor: quarantined after 3 attempt(s); "
            "last failure: worker crashed"
        )
        # The transient cell recovered and matches its clean outcome.
        assert (
            serial.cells[specs[2].label]
            == clean.cells[specs[2].label]
        )

    def test_quarantined_cell_is_a_failure_not_an_exception(self):
        specs = quick_campaign(steps=3)[:2]
        plan = ExecutorFaultPlan({specs[0].label: WorkerFault(kind="crash")})
        result = run_campaign(specs, jobs=2, policy=FAST, fault_plan=plan)
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

    def test_executor_fault_quarantines_one_cell(self):
        plan = ExecutorFaultPlan(
            {"seed1/appl-driven": WorkerFault(kind="raise")}
        )
        result = self._sweep(policy=FAST, executor_fault_plan=plan)
        bad = result.cells["seed1/appl-driven"]
        assert bad.error.startswith("executor: quarantined after")
        assert result.cells["seed0/appl-driven"].error is None
        assert result.cells["seed2/appl-driven"].error is None
        assert result.executor.quarantines == 1

    def test_transient_executor_fault_retries_to_the_clean_artifact(self):
        clean = self._sweep()
        plan = ExecutorFaultPlan(
            {"seed1/appl-driven": WorkerFault(kind="raise", until_attempt=1)}
        )
        retried = self._sweep(policy=FAST, executor_fault_plan=plan)
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
