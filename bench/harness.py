"""The untraced measurement: production campaign path, closed loop, jobs=1.

A *round* carries every cell of a workload from campaign-file text to
its row in the artifact written to disk, through the exact call
sequence of ``repro campaign``: ``load_campaign`` -> ``run_campaign(
jobs=1, policy=ExecutorPolicy(timeout=None, max_retries=2),
journal_path=..., progress=...)`` -> ``CampaignResult.to_json()``
written -> ``campaign_rollup`` written. This module imports only the
five production entry points below, so refactors underneath them cannot
break the end-to-end numbers; everything layer-specific lives in
``tracing.py`` / ``layers.py``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaign import (
    ExecutorPolicy,
    ScenarioSpec,
    TransformCache,
    dump_campaign,
    load_campaign,
    run_campaign,
)
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.obs.rollup import campaign_rollup, rollup_to_json
from repro.phases.pipeline import transform

import gen

POLICY = ExecutorPolicy(timeout=None, max_retries=2)
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------


def percentile(samples: list[float], percent: int) -> float:
    """Nearest-rank percentile; refused unless 10 samples lie beyond it.

    So p90 needs at least 100 samples: a tail read off fewer is one
    outlier, not a percentile.
    """
    rank = -(-percent * len(samples) // 100)
    if len(samples) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{percent} of {len(samples)} samples has fewer than "
            f"{TAIL_SAMPLES} samples beyond it"
        )
    return sorted(samples)[rank - 1]


def iqr_share(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 4)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# One round through the production path
# ----------------------------------------------------------------------


def _burst() -> float:
    """Seconds the fixed calibration kernel takes right now (best of two).

    Interpreted, allocation-heavy Python, like the program under test,
    so that it slows down with it when the host does.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for i in range(12000):
            table[i & 1023] = (i, str(i & 7))
        best = min(best, time.perf_counter() - start)
    return best


class Calibrator:
    """Converts wall time to *calibrated* seconds, by timed bursts.

    This sandbox's CPU alternates between two speeds about 25 % apart,
    for tens of seconds at a time: identical rounds read 1.4 s in one run
    and 1.8 s in the next, whatever statistic is taken within the run.
    So the harness times a fixed kernel at cell boundaries (at most once
    per :attr:`MIN_GAP_S`) and scales every interval between two bursts
    by ``REF_S / mean(the two bursts)``: a calibrated second is a second
    on a host where the kernel takes :attr:`REF_S`. The bursts themselves
    are outside every timed interval. Both figures are kept; the
    end-to-end metrics are calibrated, the traced pass is raw.
    """

    #: The kernel's time in this sandbox's fast mode.
    REF_S = 0.00125
    MIN_GAP_S = 0.04

    def __init__(self) -> None:
        self._bursts: list[tuple[float, float, float]] = []
        self.stamp(force=True)

    def stamp(self, force: bool = False) -> float:
        """The current time; runs a burst after it when one is due."""
        now = time.perf_counter()
        if force or now - self._bursts[-1][1] >= self.MIN_GAP_S:
            burst = _burst()
            self._bursts.append((now, time.perf_counter(), burst))
        return now

    def between(self, start: float, end: float) -> tuple[float, float]:
        """``(raw, calibrated)`` seconds from stamp *start* to stamp *end*.

        Call after a forced stamp at or after *end*, so that the whole
        interval lies between two bursts.
        """
        raw = calibrated = 0.0
        for before, after in zip(self._bursts, self._bursts[1:]):
            overlap = min(end, after[0]) - max(start, before[1])
            if overlap > 0:
                raw += overlap
                calibrated += (
                    overlap * self.REF_S / ((before[2] + after[2]) / 2)
                )
        return raw, calibrated


class CellClock:
    """``progress=`` callback stamping each cell's wall from outside.

    A cell's wall is the time between consecutive cell-done events (the
    first one counts from the campaign's start event), so it includes
    whatever the executor does around the worker — unlike
    ``CampaignResult.timings``, which the program under test reports
    about itself.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.intervals: dict[str, tuple[float, float]] = {}
        self._calibrator = calibrator
        self._last = 0.0

    def __call__(self, event) -> None:
        if event.kind not in ("start", "cell-done"):
            return
        now = self._calibrator.stamp()
        if event.kind == "cell-done":
            self.intervals[event.cell] = (self._last, now)
        # The next cell starts once this stamp's burst, if any, is over.
        self._last = time.perf_counter()


@dataclass
class Round:
    """What one round produced.

    ``wall`` and ``cell_walls`` are calibrated seconds (see
    :class:`Calibrator`); ``raw_wall`` is the same round as the clock
    read it. ``result`` and ``campaign_text`` are dropped from all but
    the last measured round (see :func:`measure`): holding every round's
    outcomes would grow the heap, and with it the cost of each garbage
    collection, from round to round.
    """

    wall: float
    raw_wall: float
    cell_walls: dict[str, float]
    artifact_sha256: str
    artifact_bytes: int
    campaign_text: str | None
    result: object
    job_sources: dict[str, str] = field(default_factory=dict)
    job_verified: dict[str, bool] = field(default_factory=dict)


def transform_jobs(jobs, cache_dir: Path, calibrator: Calibrator):
    """Run every transform job; ``(specs, intervals, sources, verified)``."""
    cache = TransformCache(cache_dir)
    specs, intervals, sources, verified = [], {}, {}, {}
    for job in jobs:
        start = time.perf_counter()
        result = transform(parse(job.source), cache=cache)
        text = to_source(result.program)
        specs.append(ScenarioSpec(
            label=job.label, program=text, n_processes=job.n_processes,
            params=dict(job.params), protocol="appl-driven",
            seed=gen.SIM_SEED,
        ))
        intervals[job.label] = (start, calibrator.stamp())
        sources[job.label] = text
        verified[job.label] = bool(result.verification.ok)
    return specs, intervals, sources, verified


@contextmanager
def no_span(name: str):
    """Span recorder of the untraced run: records nothing."""
    yield


def run_round(
    inputs: gen.Inputs, workdir: Path, span=no_span,
    calibrator: Calibrator | None = None,
) -> Round:
    """One closed-loop pass over the workload's cells, into *workdir*.

    *workdir* must not exist: a fresh directory per round gives every
    round a fresh journal and a fresh transform cache. *span* is a
    context-manager factory; the traced pass passes its recorder to time
    each step of this very sequence from outside.
    """
    workdir.mkdir(parents=True)
    calibrator = calibrator or Calibrator()
    start = time.perf_counter()
    job_intervals, sources, verified = {}, {}, {}
    if inputs.jobs is not None:
        with span("transform.jobs"):
            specs, job_intervals, sources, verified = transform_jobs(
                inputs.jobs, workdir / "transform_cache", calibrator
            )
            text = dump_campaign(specs)
    else:
        text = inputs.campaign_text
    clock = CellClock(calibrator)
    with span("campaign.spec.load"):
        specs = load_campaign(text)
    with span("campaign.executor.run"):
        result = run_campaign(
            specs,
            jobs=1,
            policy=POLICY,
            journal_path=(
                workdir / "journal.jsonl" if inputs.journal else None
            ),
            progress=clock,
        )
    with span("campaign.outcome.encode"):
        artifact = result.to_json()
    with span("campaign.artifact.write"):
        (workdir / "results.json").write_text(artifact + "\n")
    if inputs.rollup:
        with span("obs.rollup.campaign_rollup"):
            rollup = campaign_rollup(result)
        with span("obs.rollup.write"):
            (workdir / "metrics.json").write_text(rollup_to_json(rollup))
    end = calibrator.stamp(force=True)
    raw_wall, wall = calibrator.between(start, end)
    cell_walls = {
        label: calibrator.between(*interval)[1] + (
            calibrator.between(*job_intervals[label])[1]
            if label in job_intervals else 0.0
        )
        for label, interval in clock.intervals.items()
    }
    return Round(
        wall=wall, raw_wall=raw_wall, cell_walls=cell_walls,
        artifact_sha256=hashlib.sha256(artifact.encode()).hexdigest(),
        artifact_bytes=len(artifact) + 1,
        campaign_text=text, result=result, job_sources=sources,
        job_verified=verified,
    )


# ----------------------------------------------------------------------
# Baselines for the checks
# ----------------------------------------------------------------------


def strip_checkpoints(source: str) -> str:
    """*source* without its ``checkpoint`` statements."""
    return "".join(
        line for line in source.splitlines(keepends=True)
        if line.strip() != "checkpoint"
    )


def twin_of(spec: ScenarioSpec) -> ScenarioSpec:
    """The fault-free, checkpoint-free twin of *spec* (same label)."""
    return replace(
        spec, program=strip_checkpoints(spec.program), protocol="none",
        fault_plan=None, observe=False, retain_k=None, storage_replicas=1,
        checkpoint_mode="full",
    )


def run_twins(campaign_text: str, calibrator: Calibrator) -> dict[str, dict]:
    """``{label: {"completion_time", "final_env"}}`` of every cell's twin.

    The denominator of the paper's ``r = Gamma/T - 1`` and the
    reference state for the recovery-transparency check.
    """
    twins = [twin_of(spec) for spec in load_campaign(campaign_text)]
    result = run_campaign(
        twins, jobs=1, progress=lambda event: calibrator.stamp()
    )
    return {
        label: {
            "completion_time": cell.completion_time,
            "final_env": cell.final_env,
        }
        for label, cell in result.cells.items()
    }


def outcome_digest(outcome) -> str:
    """SHA-256 of a cell's deterministic outcome, minus ``spec_hash``.

    ``spec_hash`` covers the backend field, so dropping it makes the
    digest comparable between the compiled stack under test and the
    reference stack the expectations come from.
    """
    data = outcome.to_json_dict()
    del data["spec_hash"]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reference_digests(campaign_text: str) -> dict[str, str]:
    """Outcome digests of the same cells on the reference backend."""
    specs = [
        replace(spec, backend="reference")
        for spec in load_campaign(campaign_text)
    ]
    result = run_campaign(specs, jobs=1)
    return {
        label: outcome_digest(cell) for label, cell in result.cells.items()
    }


def load_expected(inputs: gen.Inputs) -> dict | None:
    """Committed expectations for *inputs*, if they apply to its seed."""
    path = EXPECTED_DIR / f"{inputs.workload}.json"
    if not path.exists():
        return None
    expected = json.loads(path.read_text())
    if inputs.seed_invariant or expected["seed"] == inputs.seed:
        return expected["cells"]
    return None


# ----------------------------------------------------------------------
# Set-up, measurement, checks
# ----------------------------------------------------------------------


@dataclass
class Prepared:
    """Result of one set-up: inputs, the warm-up round, the twins.

    ``setup_s`` is the set-up's calibrated wall (imports excluded: the
    caller adds them).
    """

    inputs: gen.Inputs
    warmup: Round
    twins: dict[str, dict]
    setup_s: float


def set_up(workload: str, seed: int, tmp: Path) -> Prepared:
    """Generate inputs, run the untimed warm-up round and the twins."""
    calibrator = Calibrator()
    start = time.perf_counter()
    inputs = gen.make_inputs(workload, seed)
    workdir = tmp / "warmup"
    warmup = run_round(inputs, workdir, calibrator=calibrator)
    shutil.rmtree(workdir)
    twins = run_twins(warmup.campaign_text, calibrator)
    warmup.result = warmup.campaign_text = None
    _, calibrated = calibrator.between(start, calibrator.stamp(force=True))
    return Prepared(inputs, warmup, twins, calibrated)


def measure(
    prepared: Prepared, tmp: Path, seconds: float | None, rounds: int | None,
) -> list[Round]:
    """Measured rounds: a fixed count, or whole rounds for *seconds*.

    Time-boxed runs still do at least enough rounds for p90 to have its
    ten tail samples, so every reported statistic is defined.
    """
    cells = len(prepared.warmup.cell_walls)
    floor = max(3, -(-10 * TAIL_SAMPLES // cells))
    done: list[Round] = []
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return len(done) < rounds
        return len(done) < floor or time.perf_counter() - start < seconds

    while more():
        if done:
            done[-1].result = done[-1].campaign_text = None
        workdir = tmp / f"round_{len(done)}"
        done.append(run_round(prepared.inputs, workdir))
        shutil.rmtree(workdir)
    return done


def check(prepared: Prepared, rounds: list[Round]) -> tuple[set, list[str]]:
    """Untimed correctness checks; ``(failed cell labels, messages)``.

    A failure that belongs to no cell (artifact drift, a stale
    expectation file) is counted once, under ``"(whole run)"``.
    """
    inputs, twins = prepared.inputs, prepared.twins
    last = rounds[-1]
    failed: set[str] = set()
    messages: list[str] = []

    def fail(label: str | None, text: str) -> None:
        failed.add(label or "(whole run)")
        messages.append(f"{label or inputs.workload}: {text}")

    specs = {spec.label: spec for spec in load_campaign(last.campaign_text)}
    expected = load_expected(inputs)
    if expected is None:
        digests = reference_digests(last.campaign_text)
    else:
        digests = {label: e["digest"] for label, e in expected.items()}
        for label, entry in expected.items():
            if label not in twins:
                fail(None, f"expectation file names unknown cell {label}")
            elif twins[label]["completion_time"] != entry["twin_completion_time"]:
                fail(label, "twin completion time differs from expectation")
    for label, cell in last.result.cells.items():
        if not cell.ok:
            fail(label, cell.error or "run did not complete")
        if digests.get(label) != outcome_digest(cell):
            fail(label, "outcome digest differs from the reference stack's")
        if (
            cell.ok and specs[label].fault_plan is not None
            and cell.final_env != twins[label]["final_env"]
        ):
            fail(label, "final state differs from the fault-free twin's")
    for label, ok in last.job_verified.items():
        if not ok:
            fail(label, "transformed program failed Condition 1")
    for job in inputs.jobs or ():
        if job.twin and last.job_sources[job.label] != last.job_sources[job.twin]:
            fail(job.label, "cache-hit output differs from its cold twin's")
    for index, round_ in enumerate(rounds):
        if round_.artifact_sha256 != prepared.warmup.artifact_sha256:
            fail(None, f"artifact bytes of round {index + 1} differ")
    return failed, messages


def end_to_end(
    prepared: Prepared, rounds: list[Round], setup_s: float, rss_mb: float,
) -> dict:
    """The end-to-end metrics of one workload run, each with its base."""
    last = rounds[-1]
    cells = list(last.result.cells.values())
    walls = [r.wall for r in rounds]
    median_wall = statistics.median(walls)
    raw_wall = statistics.median(r.raw_wall for r in rounds)
    samples = [wall for r in rounds for wall in r.cell_walls.values()]
    stats = [cell.stats for cell in cells if cell.stats]
    steps = sum(s["steps"] for s in stats)
    stored_bytes = sum(s["stored_bytes"] for s in stats)
    stored = sum(s["stored_checkpoints"] for s in stats)
    done = [cell for cell in cells if cell.ok]
    gamma = sum(cell.completion_time for cell in done)
    base = sum(prepared.twins[c.label]["completion_time"] for c in done)
    try:
        p90 = percentile(samples, 90) * 1e3
    except ValueError:
        p90 = None

    def metric(value, unit, base):
        return {"value": value, "unit": unit, "base": base}

    return {
        "cells_per_s": metric(
            len(cells) / median_wall, "cells/s",
            f"{len(cells)} cells / {median_wall:.4f} calibrated s, median "
            f"of {len(walls)} rounds (raw {raw_wall:.4f} s)",
        ),
        "sim_steps_per_s": metric(
            steps / median_wall, "steps/s",
            f"{steps} steps / {median_wall:.4f} calibrated s",
        ),
        "cell_wall_p50_ms": metric(
            statistics.median(samples) * 1e3, "ms",
            f"{len(samples)} calibrated samples",
        ),
        "cell_wall_p90_ms": metric(
            p90, "ms", f"{len(samples)} calibrated samples",
        ),
        "peak_rss_mb": metric(rss_mb, "MiB", "ru_maxrss"),
        "setup_s": metric(
            setup_s, "s", "imports + median calibrated set-up",
        ),
        "stored_bytes_per_checkpoint": metric(
            stored_bytes / stored, "B", f"{stored_bytes} B / {stored} ckpts",
        ),
        "sim_overhead_ratio": metric(
            gamma / base - 1.0, "ratio",
            f"{gamma:.6f} s / {base:.6f} s - 1 over {len(done)} cells",
        ),
    }
