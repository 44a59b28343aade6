"""Deterministic parallel campaign execution, resilient to its own faults.

:func:`run_cells` is the generic substrate: a list of ``(key,
payload)`` cells, a picklable worker, and a ``jobs`` knob. Cells fan
out over a :class:`~concurrent.futures.ProcessPoolExecutor`; results
are merged **by cell key in submission order**, so the assembled output
is byte-identical for any worker count — including ``jobs=1``, which
runs the very same worker serially in-process. Wall-clock timings are
collected alongside but kept strictly out of the deterministic payload
(time is the one thing a parallel run is allowed to change).

Every run takes the one resilient path — the paper's checkpoint/restart
discipline applied to the harness itself. A call without an
:class:`ExecutorPolicy` is its zero-retry, no-timeout case (a worker's
own exception then reaches the caller as itself); with a policy (and
optionally a journal or an injected fault plan) the executor guarantees:

- **per-cell wall-clock timeouts** — a hung worker is detected by the
  parent, its pool is killed and rebuilt, and the cell is retried;
- **bounded retry with exponential backoff** — every attributable
  failure (worker exception, attributable crash, timeout) charges the
  cell's attempt budget; exhausted cells are *quarantined* into a
  structured error result instead of aborting the campaign;
- **``BrokenProcessPool`` recovery** — a worker death breaks the whole
  pool, taking innocent in-flight cells with it; the executor rebuilds
  the pool, re-runs the interrupted cells one at a time (*isolation*),
  and charges only the cell that provably killed its own pool;
- **journalled resume** — with a :class:`~repro.campaign.journal
  .CampaignJournal`, every finalised outcome is durably appended
  (fsync'd JSONL keyed by cell key × content hash), so a SIGKILL'd
  campaign restarted with the same journal skips every finished cell
  and re-executes only the rest.

The hard invariant is preserved and extended: the deterministic
artifact is byte-identical across any ``jobs`` count **and** across
clean vs. retried vs. killed-and-resumed runs — quarantine messages
deliberately contain no PIDs, times, or host state.

:func:`run_campaign` instantiates the substrate for
:class:`~repro.campaign.spec.ScenarioSpec` cells: one journal codec
(key = label, hash = ``spec.content_hash()``), one quarantine rule, one
journal lifetime, and one worker. Each worker builds a simulation from
its spec (``spec.build()``), runs it, and returns a plain-data
:class:`CellOutcome` — stats dict, final environment, completion time,
and (when the spec says ``observe``) the cell's full JSONL
observability event log, captured per-worker and merged
deterministically by cell key. A caller's ``judge`` turns a clean run
into a verdict inside the worker; the chaos sweep is that caller.
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
from typing import Callable, NamedTuple

from repro.errors import ExecutorQuarantineError, ReproError, SimulationError
from repro.campaign.faults import (
    ExecutorFaultPlan,
    _InjectedCrash,
    _InjectedHang,
    fire_fault,
)
from repro.campaign.journal import CampaignJournal
from repro.campaign.spec import ScenarioSpec


def _attempt_call(worker, fault, attempt, in_process, payload):
    """Worker shim: fire any due injected fault, then run the worker.

    The fault fires *outside* the worker callable, so cell-level error
    capture (e.g. ``_campaign_cell``'s) never swallows an injected
    executor fault — they model the process dying, not the cell
    failing. The worker runs with the cyclic collector paused (a
    finished cell leaves no cycles, so its kept checkpoints need no
    rescans) and the caller's collector state comes back on any exit.
    Returns ``(result, elapsed_s, worker_pid)``; the pid
    identifies which process executed the cell — diagnostic only (it
    feeds the rollup's ``diagnostics.workers`` map), never part of any
    deterministic artifact.
    """
    start = time.perf_counter()
    if fault is not None and fault.fires(attempt):
        fire_fault(fault, in_process)
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


@dataclass(frozen=True)
class ExecutorPolicy:
    """Retry/timeout policy of the resilient executor.

    Attributes:
        timeout: Per-cell wall-clock budget in seconds (``None`` =
            unlimited). Enforced by the parent when cells run on a
            worker pool (``jobs >= 2``); a serial run cannot preempt
            itself, so only *injected* hangs are detectable there.
        max_retries: Re-attempts after the first try; a cell has
            ``max_retries + 1`` total attempts before quarantine.
        backoff_base: Sleep before the first retry, in seconds.
        backoff_factor: Multiplier per further retry (exponential).
        backoff_max: Upper bound on any single backoff sleep.
        poll_interval: Parent-side wake-up granularity for deadline
            checks (diagnostic only; never affects the artifact).
    """

    timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    poll_interval: float = 0.05

    @property
    def max_attempts(self) -> int:
        """Total attempts a cell gets before quarantine."""
        return self.max_retries + 1

    def backoff(self, attempt: int) -> float:
        """Backoff sleep after failed attempt number *attempt* (1-based)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass
class ExecutorStats:
    """Resilience counters of one ``run_cells`` invocation.

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

    def publish(self, registry) -> None:
        """Surface the counters as ``executor.*`` metrics on *registry*."""
        for name, value in self.as_dict().items():
            registry.counter(f"executor.{name}").inc(value)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"restarts={self.worker_restarts} retries={self.retries} "
            f"timeouts={self.timeouts} quarantined={self.quarantines} "
            f"resume-hits={self.resume_hits}"
        )


def _timeout_reason(policy: ExecutorPolicy) -> str:
    """Deterministic quarantine reason for a hung/over-deadline cell."""
    if policy.timeout is not None:
        return f"timed out after {policy.timeout:g}s"
    return "hung"


def _quarantine_message(attempts: int, reason: str) -> str:
    """Deterministic quarantine text (no PIDs, times, or host state)."""
    return (
        f"executor: quarantined after {attempts} attempt(s); "
        f"last failure: {reason}"
    )


def _charge(
    key, payload, attempt, reason, error, policy, stats, emit, fail, notify
) -> bool:
    """Charge failed *attempt* of a cell; ``True`` once it is quarantined.

    Within the budget this counts and announces a retry (the caller
    schedules it); at the budget it quarantines the cell and emits the
    outcome *fail* builds from the deterministic quarantine text.
    """
    if attempt >= policy.max_attempts:
        stats.quarantines += 1
        notify("quarantine", cell=key)
        message = _quarantine_message(attempt, reason)
        emit(key, fail(key, payload, message, error), 0.0, None, attempt)
        return True
    stats.retries += 1
    notify("retry", cell=key, attempt=attempt + 1)
    return False


def _default_fail(key, _payload, message, error):
    """Quarantine fallback when the caller gave no factory: raise."""
    raise ExecutorQuarantineError(
        f"cell {key!r}: {message}"
    ) from error


def _propagate(key, payload, message, error):
    """Fallback of a policy-less call: the worker's own exception."""
    if error is not None:
        raise error
    _default_fail(key, payload, message, error)


class JournalCodec(NamedTuple):
    """How :func:`run_cells` maps a cell onto a journal record."""

    key: Callable        # (key, payload) -> journal key string
    cell_hash: Callable  # (key, payload) -> content hash string
    encode: Callable     # result -> JSON-ready dict
    decode: Callable     # JSON dict -> result


class _Cell:
    """Mutable in-flight state of one cell in the pool runner."""

    __slots__ = ("key", "payload", "attempt", "ready_at", "isolated")

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload
        self.attempt = 1
        self.ready_at = 0.0
        self.isolated = False


def _run_serial(
    cells, worker, policy, fault_plan, stats, emit, fail, notify
):
    """In-process execution (no preemption, same semantics as the pool).

    Injected crash/hang sentinels are mapped onto the exact quarantine
    texts the pool path produces, keeping artifacts byte-identical
    across ``jobs`` values.
    """
    for key, payload in cells:
        attempt = 1
        while True:
            fault = (
                fault_plan.for_key(key) if fault_plan is not None else None
            )
            error = None
            try:
                result, elapsed, pid = _attempt_call(
                    worker, fault, attempt, True, payload
                )
            except _InjectedCrash:
                reason = "worker crashed"
            except _InjectedHang:
                stats.timeouts += 1
                reason = _timeout_reason(policy)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                error = exc
            else:
                emit(key, result, elapsed, pid, attempt)
                break
            if _charge(key, payload, attempt, reason, error, policy, stats,
                       emit, fail, notify):
                break
            time.sleep(policy.backoff(attempt))
            attempt += 1


def _run_pool(
    cells, worker, workers, policy, fault_plan, stats, emit, fail, notify
):
    """Process-pool execution with bounded in-flight cells.

    At most *workers* cells are in flight, so a pool death has a
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
    pool = ProcessPoolExecutor(max_workers=workers)

    def submit(cell: _Cell) -> None:
        now = time.monotonic()
        if cell.ready_at > now:
            time.sleep(cell.ready_at - now)
        fault = (
            fault_plan.for_key(cell.key) if fault_plan is not None else None
        )
        future = pool.submit(
            partial(_attempt_call, worker, fault, cell.attempt, False),
            cell.payload,
        )
        inflight[future] = cell
        deadlines[future] = (
            time.monotonic() + policy.timeout
            if policy.timeout is not None
            else None
        )

    def restart_pool() -> None:
        nonlocal pool
        stats.worker_restarts += 1
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
        pool = ProcessPoolExecutor(max_workers=workers)

    def abandon_inflight() -> None:
        # The pool died under these cells through (presumably) no fault
        # of their own: re-run in isolation, uncharged.
        interrupted = [inflight.pop(future) for future in list(inflight)]
        deadlines.clear()
        for cell in interrupted:
            cell.ready_at = 0.0
            suspects.append(cell)

    def failed(cell: _Cell, reason: str, error=None, isolate=True) -> None:
        if _charge(cell.key, cell.payload, cell.attempt, reason, error,
                   policy, stats, emit, fail, notify):
            return
        cell.attempt += 1
        cell.ready_at = time.monotonic() + policy.backoff(cell.attempt - 1)
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
                while pending and len(inflight) < workers:
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
            horizon = policy.poll_interval
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
                    result, elapsed, pid = future.result()
                except BrokenExecutor:
                    broken_cells.append(cell)
                except Exception as error:
                    failed(
                        cell,
                        f"{type(error).__name__}: {error}",
                        error,
                        isolate=False,
                    )
                else:
                    emit(cell.key, result, elapsed, pid, cell.attempt)
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
                    failed(cell, _timeout_reason(policy))
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def run_cells(
    items: list[tuple],
    worker,
    jobs: int | None = 1,
    *,
    policy: ExecutorPolicy | None = None,
    journal: CampaignJournal | None = None,
    codec: JournalCodec | None = None,
    quarantine=None,
    fault_plan: ExecutorFaultPlan | None = None,
    stats: ExecutorStats | None = None,
    progress=None,
    tracker=None,
    workers: dict | None = None,
) -> tuple[dict, dict]:
    """Run every ``(key, payload)`` cell through *worker*.

    Returns ``(results, timings)``: two dicts keyed by cell key, both
    in the submission order of *items*. ``results`` holds exactly what
    the worker returned — the deterministic artifact; ``timings`` holds
    per-cell wall-clock seconds — diagnostic only, never part of any
    byte-identity contract.

    Three further diagnostic channels, all strictly outside the
    deterministic artifact:

    - *progress* is a callback receiving structured
      :class:`~repro.obs.progress.ProgressEvent` records (campaign
      start, each cell's final outcome, retries, quarantines, end) as
      they happen — the live-feedback channel behind
      ``repro campaign --progress``;
    - *tracker* is a :class:`~repro.obs.spans.SpanTracker` recording
      the cell lifecycle as wall-clock spans: one ``cell.attempt`` per
      completed attempt, one ``cell`` per final outcome, and a
      ``campaign.merge`` span over the deterministic merge;
    - *workers* is a dict the executor fills with ``key -> worker
      pid`` for every cell that actually ran (journal-served and
      quarantined cells have no pid).

    *worker* must be a picklable (module-level) callable. Keys must be
    unique; any hashable, picklable key works.

    The resilience knobs (see the module doc for semantics):

    - *policy* bounds per-cell wall-clock time and retry budget.
      Without one a cell gets a single attempt and no deadline, and —
      unless *quarantine* is given — a worker exception propagates to
      the caller as itself;
    - *journal* (with *codec*) serves already-finished cells from disk
      and durably appends each newly finalised one;
    - *quarantine* is ``(key, payload, message, error) -> result``, the
      factory for a budget-exhausted cell's structured error result;
      without it, quarantine under a *policy* raises
      :class:`~repro.errors.ExecutorQuarantineError`;
    - *fault_plan* injects deterministic executor faults (the
      ``--inject-fault`` and ``--executor-faults`` flags, and tests);
    - *stats* (an :class:`ExecutorStats`) accumulates the resilience
      counters in place.
    """
    keys = [key for key, _ in items]
    counts = Counter(keys)
    dupes = sorted(repr(key) for key, count in counts.items() if count > 1)
    if dupes:
        raise SimulationError(
            f"campaign cells must have unique keys; duplicated: {dupes}"
        )
    if journal is not None and codec is None:
        raise SimulationError("run_cells with a journal needs a codec")
    jobs = resolve_jobs(jobs)
    fail = quarantine
    if fail is None:
        fail = _propagate if policy is None else _default_fail
    if policy is None:
        policy = ExecutorPolicy(max_retries=0)
    stats = stats if stats is not None else ExecutorStats()

    collected: dict = {}
    timings: dict = {}
    journal_ids: dict = {}  # key -> (journal key, content hash)
    todo: list[tuple] = []

    def notify(kind, cell=None, **fields):
        if progress is None:
            return
        from repro.obs.progress import ProgressEvent

        progress(ProgressEvent(
            kind=kind,
            done=len(collected),
            total=len(items),
            cell=None if cell is None else str(cell),
            fields=fields,
        ))

    def emit(key, result, elapsed, pid=None, attempt=1) -> None:
        collected[key] = result
        timings[key] = elapsed
        if journal is not None:
            journal.record(*journal_ids[key], codec.encode(result))
        if pid is not None and workers is not None:
            workers[key] = pid
        ok = bool(getattr(result, "ok", True))
        if tracker is not None:
            end = time.perf_counter()
            tracker.record(
                "cell.attempt", end - elapsed, end,
                cell=str(key), attempt=attempt,
            )
            tracker.record("cell", end - elapsed, end, cell=str(key), ok=ok)
        notify("cell-done", cell=key, ok=ok)

    notify("start", jobs=jobs)
    if journal is not None:
        journal.load()
        stats.journal_torn_entries += journal.torn_entries
    for key, payload in items:
        if journal is not None:
            journal_ids[key] = (
                codec.key(key, payload), codec.cell_hash(key, payload)
            )
            entry = journal.get(*journal_ids[key])
            if entry is not None:
                collected[key] = codec.decode(entry)
                timings[key] = 0.0
                stats.resume_hits += 1
                notify(
                    "cell-done", cell=key, resumed=True,
                    ok=bool(getattr(collected[key], "ok", True)),
                )
                continue
        todo.append((key, payload))

    if todo:
        if jobs == 1:
            _run_serial(
                todo, worker, policy, fault_plan, stats, emit, fail, notify
            )
        else:
            _run_pool(
                [_Cell(key, payload) for key, payload in todo],
                worker, min(jobs, len(todo)), policy, fault_plan, stats,
                emit, fail, notify,
            )

    start = time.perf_counter()
    results = {key: collected[key] for key in keys}
    ordered = {key: timings[key] for key in keys}
    if tracker is not None:
        tracker.record(
            "campaign.merge", start, time.perf_counter(), cells=len(keys)
        )
    notify(
        "end",
        failed=sum(1 for r in results.values() if not getattr(r, "ok", True)),
        quarantined=stats.quarantines,
    )
    return results, ordered


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
    per cell), ``jobs``, and ``executor`` (the executor's resilience
    counters) are diagnostics, deliberately excluded
    from :meth:`to_json` so the serialised campaign result is
    byte-identical for any worker count and across clean, retried, and
    killed-and-resumed runs.
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

    def diagnostics_dict(self) -> dict:
        """The non-deterministic side channel: timings, jobs, counters."""
        return {
            "jobs": self.jobs,
            "timings": dict(self.timings),
            "workers": dict(self.workers),
            "executor": (
                None if self.executor is None else self.executor.as_dict()
            ),
        }


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


def run_campaign(
    specs: list[ScenarioSpec],
    jobs: int | None = 1,
    *,
    policy: ExecutorPolicy | None = None,
    journal_path=None,
    fault_plan: ExecutorFaultPlan | None = None,
    registry=None,
    progress=None,
    tracker=None,
    judge=None,
) -> CampaignResult:
    """Run every spec (labels are the cell keys) and merge the results.

    The hard invariant: the returned :class:`CampaignResult`'s
    deterministic artifact (:meth:`CampaignResult.to_json`) is
    byte-identical for any *jobs* value and across clean, retried, and
    killed-and-resumed runs.

    *policy* sets per-cell timeouts and the retry budget before
    quarantine (none: one attempt, no deadline); *journal_path* makes
    progress durable (and resumable — a journal that already exists
    serves its finished cells; an edited spec's new content hash
    re-executes it); *fault_plan* injects deterministic executor
    faults; *registry* (a :class:`~repro.obs.metrics.MetricsRegistry`)
    receives the ``executor.*`` resilience counters; *progress* streams
    structured :class:`~repro.obs.progress.ProgressEvent` records as
    cells finish; *tracker* (a :class:`~repro.obs.spans.SpanTracker`)
    records the cell-lifecycle wall-clock spans; *judge* (a picklable
    ``(spec, sim, result) -> reason | None``) runs in the worker after
    each clean run (see :func:`_campaign_cell`). The worker pid of
    every executed cell lands in :attr:`CampaignResult.workers`.
    """
    stats = ExecutorStats()
    workers: dict[str, int] = {}
    journal = (
        CampaignJournal(journal_path) if journal_path is not None else None
    )
    try:
        results, timings = run_cells(
            [(spec.label, spec) for spec in specs],
            partial(_campaign_cell, judge=judge),
            jobs,
            policy=policy,
            journal=journal,
            codec=JournalCodec(
                key=lambda _key, spec: spec.label,
                cell_hash=lambda _key, spec: spec.content_hash(),
                encode=CellOutcome.to_json_dict,
                decode=CellOutcome.from_json_dict,
            ),
            quarantine=lambda _key, spec, message, _error: (
                CellOutcome.failure(spec, message)
            ),
            fault_plan=fault_plan,
            stats=stats,
            progress=progress,
            tracker=tracker,
            workers=workers,
        )
    finally:
        if journal is not None:
            journal.close()
    if registry is not None:
        stats.publish(registry)
    return CampaignResult(
        cells=results,
        timings=timings,
        jobs=resolve_jobs(jobs),
        executor=stats,
        workers=workers,
    )
