"""Deterministic parallel campaign execution, resilient to its own faults.

:func:`run_campaign` runs a list of
:class:`~repro.campaign.spec.ScenarioSpec` cells, keyed by label. Each
worker builds a simulation from its spec (``spec.build()``), runs it,
and returns a plain-data :class:`CellOutcome` — stats dict, final
environment, completion time, and (when the spec says ``observe``) the
cell's full JSONL observability event log. A caller's ``judge`` turns
a clean run into a verdict inside the worker; the chaos sweep is that
caller.

``jobs=1`` runs the worker serially in-process; more jobs fan the cells
out over a :class:`~concurrent.futures.ProcessPoolExecutor`. Outcomes
are merged **by label in submission order**, so the assembled result is
byte-identical for any worker count. Wall-clock timings are collected
alongside but kept strictly out of the deterministic artifact (time is
the one thing a parallel run is allowed to change).

Every run takes the one resilient path — the paper's checkpoint/restart
discipline applied to the harness itself. A call without an
:class:`ExecutorPolicy` is its zero-retry, no-timeout case; with a
policy (and optionally a journal) the executor guarantees:

- **per-cell wall-clock timeouts** — a hung worker is detected by the
  parent, its pool is killed and rebuilt, and the cell is retried;
- **bounded retry with exponential backoff** — every attributable
  failure (worker exception, attributable crash, timeout) charges the
  cell's attempt budget; an exhausted cell is *quarantined* into its
  :meth:`CellOutcome.failure` instead of aborting the campaign;
- **``BrokenProcessPool`` recovery** — a worker death breaks the whole
  pool, taking innocent in-flight cells with it; the executor rebuilds
  the pool, re-runs the interrupted cells one at a time (*isolation*),
  and charges only the cell that provably killed its own pool;
- **journalled resume** — with a journal, every finalised outcome is
  durably appended (:class:`~repro.campaign.journal.CampaignJournal`:
  fsync'd JSONL keyed by label × ``spec.content_hash()``), so a
  SIGKILL'd campaign restarted with the same journal skips every
  finished cell and re-executes only the rest.

The deterministic artifact is byte-identical across any ``jobs`` count
**and** across clean vs. retried vs. killed-and-resumed runs —
quarantine messages deliberately contain no PIDs, times, or host state.
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import asdict, dataclass, field
from functools import partial

from repro.errors import ReproError, SimulationError
from repro.campaign.journal import CampaignJournal
from repro.campaign.spec import ScenarioSpec

#: Sleep before a cell's first retry, in seconds; each further retry
#: multiplies it by :data:`BACKOFF_FACTOR`, up to :data:`BACKOFF_MAX`.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
#: Parent-side wake-up granularity for pool deadline checks, in seconds
#: (diagnostic only; never affects the artifact).
POLL_INTERVAL = 0.05


def _attempt_call(worker, payload):
    """Worker shim: run *worker* on *payload*, timed, collector paused.

    The worker runs with the cyclic collector paused (a finished cell
    leaves no cycles, so its kept checkpoints need no rescans) and the
    caller's collector state comes back on any exit. Returns
    ``(result, elapsed_s, worker_pid)``; the pid identifies which
    process executed the cell — diagnostic only (it feeds the rollup's
    ``diagnostics.workers`` map), never part of any deterministic
    artifact.
    """
    start = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = worker(payload)
    finally:
        if collecting:
            gc.enable()
    return result, time.perf_counter() - start, os.getpid()


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value (``None``/0 → all cores, min 1)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def backoff(attempt: int) -> float:
    """Backoff sleep after failed attempt number *attempt* (1-based)."""
    return min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))


@dataclass(frozen=True)
class ExecutorPolicy:
    """Retry/timeout policy of the resilient executor.

    Attributes:
        timeout: Per-cell wall-clock budget in seconds, positive
            (``None`` = unlimited). Enforced by the parent when cells
            run on a worker pool (``jobs >= 2``); a serial run cannot
            preempt itself, so it has no deadline.
        max_retries: Re-attempts after the first try (``>= 0``); a
            cell has ``max_retries + 1`` total attempts before
            quarantine.
    """

    timeout: float | None = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SimulationError(
                f"executor retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise SimulationError(
                f"executor timeout must be positive, got {self.timeout:g}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a cell gets before quarantine."""
        return self.max_retries + 1


@dataclass
class ExecutorStats:
    """Resilience counters of one :func:`run_campaign` call.

    Diagnostic only — never part of the deterministic artifact. The
    counters mirror the executor's fault handling: pool rebuilds,
    charged retries, deadline kills, quarantined cells, journal-served
    cells, and torn journal tails tolerated at load.
    """

    worker_restarts: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantines: int = 0
    resume_hits: int = 0
    journal_torn_entries: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready counter map."""
        return asdict(self)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"restarts={self.worker_restarts} retries={self.retries} "
            f"timeouts={self.timeouts} quarantined={self.quarantines} "
            f"resume-hits={self.resume_hits}"
        )


@dataclass(frozen=True)
class CellOutcome:
    """Plain-data result of one campaign cell.

    Everything here is deterministic given the spec: the engine is
    seed-driven and the observability log carries simulated time only,
    so two runs of the same spec — in different processes, under
    different worker counts — produce equal outcomes. A quarantined
    cell carries an ``executor:``-prefixed error; a cell that died on
    an unexpected (non-:class:`~repro.errors.ReproError`) exception
    carries an ``unexpected:``-prefixed one; a judged run that broke
    its contract carries the judge's reason and keeps its stats and
    final environment.

    ``metrics`` is a side channel outside the artifact (not in JSON, the
    journal, ``==`` or ``repr``; it crosses workers by pickle): the dict
    of the registry an observed run's live log folded into, which spares
    :func:`~repro.obs.rollup.cell_metrics` decoding ``events_jsonl``.
    """

    label: str
    spec_hash: str
    error: str | None = None
    stats: dict | None = None
    final_env: dict[int, dict[str, int]] | None = None
    completion_time: float | None = None
    events_jsonl: str | None = None
    metrics: dict | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the cell ran to completion without an engine error."""
        return self.error is None and bool(
            self.stats and self.stats.get("completed")
        )

    @classmethod
    def failure(
        cls, spec: ScenarioSpec, message: str, events_jsonl: str | None = None,
        metrics: dict | None = None,
    ) -> "CellOutcome":
        """The structured error outcome of *spec* (also its quarantine)."""
        return cls(
            label=spec.label,
            spec_hash=spec.content_hash(),
            error=message,
            events_jsonl=events_jsonl,
            metrics=metrics,
        )

    def to_json_dict(self) -> dict:
        """JSON-ready form (the byte-identity artifact of one cell)."""
        return {
            "label": self.label,
            "spec_hash": self.spec_hash,
            "error": self.error,
            "stats": self.stats,
            "final_env": (
                None if self.final_env is None else {
                    str(rank): dict(env)
                    for rank, env in sorted(self.final_env.items())
                }
            ),
            "completion_time": self.completion_time,
            "events_jsonl": self.events_jsonl,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CellOutcome":
        """Rebuild an outcome from :meth:`to_json_dict`'s schema.

        Exact inverse — a journaled outcome re-serialises to the very
        bytes it was stored as, which is what the resume byte-identity
        invariant rests on.
        """
        final_env = data.get("final_env")
        return cls(
            label=data["label"],
            spec_hash=data["spec_hash"],
            error=data.get("error"),
            stats=data.get("stats"),
            final_env=(
                None if final_env is None else {
                    int(rank): dict(env)
                    for rank, env in final_env.items()
                }
            ),
            completion_time=data.get("completion_time"),
            events_jsonl=data.get("events_jsonl"),
        )


@dataclass
class CampaignResult:
    """Merged outcome of one campaign run.

    ``cells`` preserves the submitted spec order; ``timings`` (seconds
    per cell), ``jobs``, ``executor`` (the executor's resilience
    counters) and ``workers`` (label → pid of the process that ran the
    cell) are diagnostics, deliberately excluded from :meth:`to_json`
    so the serialised campaign result is byte-identical for any worker
    count and across clean, retried, and killed-and-resumed runs.
    """

    cells: dict[str, CellOutcome] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    jobs: int = 1
    executor: ExecutorStats | None = None
    workers: dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> list[CellOutcome]:
        """Cells that errored or did not complete."""
        return [cell for cell in self.cells.values() if not cell.ok]

    def to_json(self, indent: int | None = 2) -> str:
        """The deterministic campaign artifact as JSON."""
        return json.dumps(
            {
                "cells": [
                    cell.to_json_dict() for cell in self.cells.values()
                ]
            },
            indent=indent,
            sort_keys=True,
        )


def _campaign_cell(
    spec: ScenarioSpec, judge=None, observer=None
) -> CellOutcome:
    """Worker: run one scenario spec to a plain-data outcome.

    After a clean run, ``judge(spec, sim, result)`` may return a reason
    the run broke its contract; the reason becomes the outcome's
    ``error`` and the outcome keeps its stats and final environment.
    *observer* (an :class:`~repro.obs.bus.EventBus`) replaces the
    spec's own observability; the outcome then carries no event log.
    """
    obs = None
    if observer is None and spec.observe:
        from repro.obs import Observability
        from repro.obs.rollup import fold_stats

        obs = Observability()
        observer = obs.bus
    error = verdict = None
    try:
        try:
            sim = spec.build(observer=observer)
            result = sim.run()
        except ReproError as caught:
            error = caught
        else:
            if judge is not None:
                verdict = judge(spec, sim, result)
        # Folding the log raises TypeError on a metric-type conflict.
        registry = obs.metrics if obs is not None else None
    except Exception as unexpected:
        # A RecursionError, MemoryError, or plain bug in one cell must
        # not abort a whole serial campaign: capture it as a structured
        # outcome, distinguishable from engine errors by its prefix.
        return CellOutcome.failure(
            spec, f"unexpected: {type(unexpected).__name__}: {unexpected}"
        )
    if error is not None:
        events = metrics = None
        if obs is not None:
            events = obs.jsonl()
            metrics = fold_stats(registry, None, True)
        return CellOutcome.failure(
            spec, f"{type(error).__name__}: {error}", events, metrics
        )
    stats = result.stats.as_dict()
    return CellOutcome(
        label=spec.label,
        spec_hash=spec.content_hash(),
        error=verdict,
        stats=stats,
        final_env={
            rank: dict(env) for rank, env in sorted(result.final_env.items())
        },
        completion_time=result.completion_time,
        events_jsonl=obs.jsonl() if obs is not None else None,
        metrics=(
            fold_stats(registry, stats, verdict is not None)
            if obs is not None else None
        ),
    )


def _charge(spec, attempt, reason, policy, stats, emit, notify) -> bool:
    """Charge failed *attempt* of *spec*'s cell; ``True`` once quarantined.

    Within the budget this counts and announces a retry (the caller
    schedules it); at the budget it quarantines the cell, emitting its
    :meth:`CellOutcome.failure` with the deterministic quarantine text
    (no PIDs, times, or host state).
    """
    if attempt >= policy.max_attempts:
        stats.quarantines += 1
        notify("quarantine", cell=spec.label)
        message = (
            f"executor: quarantined after {attempt} attempt(s); "
            f"last failure: {reason}"
        )
        emit(spec, CellOutcome.failure(spec, message), 0.0, None, attempt)
        return True
    stats.retries += 1
    notify("retry", cell=spec.label, attempt=attempt + 1)
    return False


class _Cell:
    """Mutable in-flight state of one cell in the pool runner."""

    __slots__ = ("spec", "attempt", "ready_at", "isolated")

    def __init__(self, spec):
        self.spec = spec
        self.attempt = 1
        self.ready_at = 0.0
        self.isolated = False


def _run_serial(specs, worker, policy, stats, emit, notify):
    """In-process execution (no preemption, same semantics as the pool).

    A worker exception is charged with the very text the pool path
    gives it, keeping artifacts byte-identical across ``jobs`` values.
    """
    for spec in specs:
        attempt = 1
        while True:
            try:
                outcome, elapsed, pid = _attempt_call(worker, spec)
            except Exception as error:
                reason = f"{type(error).__name__}: {error}"
                if _charge(spec, attempt, reason, policy, stats, emit,
                           notify):
                    break
                time.sleep(backoff(attempt))
                attempt += 1
            else:
                emit(spec, outcome, elapsed, pid, attempt)
                break


def _run_pool(cells, worker, processes, policy, stats, emit, notify):
    """Process-pool execution with bounded in-flight cells.

    At most *processes* cells are in flight, so a pool death has a
    bounded blast radius. Interrupted bystanders are re-run *in
    isolation* (one at a time) without being charged; a cell whose
    solo pool dies is definitively the culprit and is charged. Cells
    that exceed their deadline are charged, the pool is killed and
    rebuilt, and everything else re-runs uncharged.
    """
    from concurrent.futures import ProcessPoolExecutor

    pending: deque[_Cell] = deque(cells)
    suspects: deque[_Cell] = deque()
    inflight: dict = {}
    deadlines: dict = {}
    pool = ProcessPoolExecutor(max_workers=processes)

    def submit(cell: _Cell) -> None:
        now = time.monotonic()
        if cell.ready_at > now:
            time.sleep(cell.ready_at - now)
        future = pool.submit(_attempt_call, worker, cell.spec)
        inflight[future] = cell
        deadlines[future] = (
            time.monotonic() + policy.timeout
            if policy.timeout is not None
            else None
        )

    def restart_pool() -> None:
        nonlocal pool
        stats.worker_restarts += 1
        pool_processes = getattr(pool, "_processes", None) or {}
        for process in list(pool_processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
        pool = ProcessPoolExecutor(max_workers=processes)

    def abandon_inflight() -> None:
        # The pool died under these cells through (presumably) no fault
        # of their own: re-run in isolation, uncharged.
        interrupted = [inflight.pop(future) for future in list(inflight)]
        deadlines.clear()
        for cell in interrupted:
            cell.ready_at = 0.0
            suspects.append(cell)

    def failed(cell: _Cell, reason: str, isolate=True) -> None:
        if _charge(cell.spec, cell.attempt, reason, policy, stats, emit,
                   notify):
            return
        cell.attempt += 1
        cell.ready_at = time.monotonic() + backoff(cell.attempt - 1)
        (suspects if isolate else pending).append(cell)

    try:
        while pending or suspects or inflight:
            if suspects:
                if not inflight:
                    cell = suspects.popleft()
                    cell.isolated = True
                    try:
                        submit(cell)
                    except BrokenExecutor:
                        restart_pool()
                        failed(cell, "worker crashed")
                        continue
            else:
                while pending and len(inflight) < processes:
                    cell = pending.popleft()
                    cell.isolated = False
                    try:
                        submit(cell)
                    except BrokenExecutor:
                        restart_pool()
                        abandon_inflight()
                        cell.ready_at = 0.0
                        suspects.appendleft(cell)
                        break
            if not inflight:
                continue
            now = time.monotonic()
            horizon = POLL_INTERVAL
            for deadline in deadlines.values():
                if deadline is not None:
                    horizon = min(horizon, max(0.0, deadline - now))
            done, _ = wait(
                set(inflight), timeout=horizon, return_when=FIRST_COMPLETED
            )
            broken_cells: list[_Cell] = []
            for future in done:
                cell = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    outcome, elapsed, pid = future.result()
                except BrokenExecutor:
                    broken_cells.append(cell)
                except Exception as error:
                    failed(
                        cell, f"{type(error).__name__}: {error}",
                        isolate=False,
                    )
                else:
                    emit(cell.spec, outcome, elapsed, pid, cell.attempt)
            if broken_cells:
                restart_pool()
                for cell in broken_cells:
                    if cell.isolated:
                        # Alone in its pool: definitively the culprit.
                        failed(cell, "worker crashed")
                    else:
                        cell.ready_at = 0.0
                        suspects.append(cell)
                abandon_inflight()
                continue
            now = time.monotonic()
            expired = [
                future
                for future, deadline in deadlines.items()
                if deadline is not None and now >= deadline
            ]
            if expired:
                stats.timeouts += len(expired)
                expired_cells = [inflight.pop(future) for future in expired]
                for future in expired:
                    deadlines.pop(future, None)
                restart_pool()
                abandon_inflight()
                for cell in expired_cells:
                    failed(cell, f"timed out after {policy.timeout:g}s")
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def run_campaign(
    specs: list[ScenarioSpec],
    jobs: int | None = 1,
    *,
    policy: ExecutorPolicy | None = None,
    journal_path=None,
    progress=None,
    tracker=None,
    judge=None,
) -> CampaignResult:
    """Run every spec (labels are the cell keys) and merge the results.

    The hard invariant: the returned :class:`CampaignResult`'s
    deterministic artifact (:meth:`CampaignResult.to_json`) is
    byte-identical for any *jobs* value and across clean, retried, and
    killed-and-resumed runs. Labels must be unique.

    *policy* sets per-cell timeouts and the retry budget before
    quarantine (none: one attempt, no deadline); *journal_path* makes
    progress durable (and resumable — a journal that already exists
    serves its finished cells; an edited spec's new content hash
    re-executes it); *judge* (a picklable ``(spec, sim, result) ->
    reason | None``) runs in the worker after each clean run (see
    :func:`_campaign_cell`).

    Two diagnostic channels, both strictly outside the artifact:

    - *progress* is a callback receiving structured
      :class:`~repro.obs.progress.ProgressEvent` records (campaign
      start, each cell's final outcome, retries, quarantines, end) as
      they happen — the live-feedback channel behind
      ``repro campaign --progress``. A cell's outcome is journalled
      before its ``cell-done`` event;
    - *tracker* is a :class:`~repro.obs.spans.SpanTracker` recording
      the cell lifecycle as wall-clock spans: one ``cell.attempt`` and
      one ``cell`` per executed cell, and a ``campaign.merge`` span
      over the deterministic merge.
    """
    labels = [spec.label for spec in specs]
    dupes = sorted(
        repr(label) for label, count in Counter(labels).items() if count > 1
    )
    if dupes:
        raise SimulationError(
            f"campaign cells must have unique labels; duplicated: {dupes}"
        )
    jobs = resolve_jobs(jobs)
    if policy is None:
        policy = ExecutorPolicy(max_retries=0)
    stats = ExecutorStats()
    journal = (
        CampaignJournal(journal_path) if journal_path is not None else None
    )
    collected: dict[str, CellOutcome] = {}
    timings: dict[str, float] = {}
    workers: dict[str, int] = {}
    hashes: dict[str, str] = {}  # label -> content hash, journal only

    def notify(kind, cell=None, **fields):
        if progress is None:
            return
        from repro.obs.progress import ProgressEvent

        progress(ProgressEvent(
            kind=kind, done=len(collected), total=len(specs), cell=cell,
            fields=fields,
        ))

    def emit(spec, outcome, elapsed, pid=None, attempt=1) -> None:
        label = spec.label
        collected[label] = outcome
        timings[label] = elapsed
        if journal is not None:
            journal.record(label, hashes[label], outcome.to_json_dict())
        if pid is not None:
            workers[label] = pid
        ok = outcome.ok
        if tracker is not None:
            end = time.perf_counter()
            tracker.record(
                "cell.attempt", end - elapsed, end,
                cell=label, attempt=attempt,
            )
            tracker.record("cell", end - elapsed, end, cell=label, ok=ok)
        notify("cell-done", cell=label, ok=ok)

    notify("start", jobs=jobs)
    try:
        todo: list[ScenarioSpec] = []
        if journal is not None:
            journal.load()
            stats.journal_torn_entries += journal.torn_entries
        for spec in specs:
            if journal is not None:
                label = spec.label
                hashes[label] = spec.content_hash()
                entry = journal.get(label, hashes[label])
                if entry is not None:
                    outcome = CellOutcome.from_json_dict(entry)
                    collected[label] = outcome
                    timings[label] = 0.0
                    stats.resume_hits += 1
                    notify(
                        "cell-done", cell=label, resumed=True, ok=outcome.ok
                    )
                    continue
            todo.append(spec)
        worker = partial(_campaign_cell, judge=judge)
        if jobs == 1:
            _run_serial(todo, worker, policy, stats, emit, notify)
        elif todo:
            _run_pool(
                [_Cell(spec) for spec in todo], worker,
                min(jobs, len(todo)), policy, stats, emit, notify,
            )
    finally:
        if journal is not None:
            journal.close()

    start = time.perf_counter()
    result = CampaignResult(
        cells={label: collected[label] for label in labels},
        timings={label: timings[label] for label in labels},
        jobs=jobs,
        executor=stats,
        workers=workers,
    )
    if tracker is not None:
        tracker.record(
            "campaign.merge", start, time.perf_counter(), cells=len(labels)
        )
    notify(
        "end", failed=len(result.failures), quarantined=stats.quarantines
    )
    return result
