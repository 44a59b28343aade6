"""Checkpoint payload microbenchmark: full vs minimized content.

For each workload, runs the same simulation (crash plan included)
twice — ``checkpoint_mode="full"`` against ``"pruned+delta"`` — and
records two things per case:

- **payload bytes**: total durable wire bytes of the surviving
  checkpoint history under each mode (``extra`` fields; exact, not
  timed), plus the reduction ratio. This is the paper-level claim —
  application-driven content minimization shrinks what each commit
  must push to stable storage.
- **commit latency**: best-of-N wall time to serialise and checksum
  every stored entry's wire payload — the CPU cost a durable commit
  pays per checkpoint. The simulator's virtual-time store publishes
  references, so this is measured here, over the real history, with
  the real canonical encoder (:mod:`repro.runtime.encoding`) and the
  real CRC. ``reference_wall_s`` is the full-mode history,
  ``optimized_wall_s`` the minimized one.

``identical`` asserts the two modes produced byte-identical behaviour
— same trace (vector clocks included), same statistics modulo the
byte-accounting counters, same final environments, same verdict —
under a failure plan that forces an actual recovery, and that each
mode's reported byte count (a sum of structural ``payload_bytes``)
equals the summed length of the encoded wire payloads. A payload "win"
that changed what recovery restores would be a correctness bug, not
an optimization.

Result artifact: ``results/BENCH_checkpoint.json`` (see
:mod:`repro.bench.record`; ``tools/perf_smoke.py`` additionally pins
the byte counts to the committed ones, ``minimized <= full`` per case
and the >= 2x reduction of ``stencil_halo_n8`` — exact,
machine-independent bounds).
"""

from __future__ import annotations

import gc
import time
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.bench.record import BenchCase, BenchReport
from repro.lang import ast_nodes as ast
from repro.lang.programs import stencil_1d, stencil_halo, token_ring
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FailurePlan, RuntimeCosts, Simulation
from repro.runtime.failures import CrashEvent
from repro.runtime.storage import stored_payload

#: The minimized mode every case compares against ``"full"``.
MINIMIZED_MODE = "pruned+delta"


@dataclass(frozen=True)
class _PayloadCase:
    """One workload configuration measured under both content modes."""

    name: str
    make_program: Callable[[], ast.Program]
    n_processes: int
    steps: int
    crash_time: float


#: ``stencil_halo`` is the headline case (a scratch-heavy kernel where
#: liveness pruning + delta encoding pays >=2x); ``stencil_1d`` bounds
#: the win on a small-state workload; ``token_ring`` at larger ``n``
#: shows the delta side alone carrying clock-dominated payloads.
PAYLOAD_CASES: tuple[_PayloadCase, ...] = (
    _PayloadCase("stencil_halo_n8", stencil_halo, 8, 12, 29.5),
    _PayloadCase("stencil_1d_n8", stencil_1d, 8, 8, 19.5),
    _PayloadCase("token_ring_n48", token_ring, 48, 6, 39.5),
)

#: Statistics counters that legitimately differ across content modes
#: (they count stored/reclaimed *wire* bytes, which is the point).
_BYTE_STATS = ("stored_bytes", "gc_reclaimed_bytes")


def _run(base: ast.Program, case: _PayloadCase, mode: str):
    sim = Simulation(
        ast.clone(base),
        case.n_processes,
        params={"steps": case.steps},
        costs=RuntimeCosts(),
        protocol=ApplicationDrivenProtocol(),
        failure_plan=FailurePlan(
            crashes=[CrashEvent(rank=1, time=case.crash_time)]
        ),
        seed=3,
        checkpoint_mode=mode,
    )
    result = sim.run()
    return sim, result


def _fingerprint(result) -> tuple:
    events = tuple(
        (
            e.seq, e.time, e.process, e.kind.value, e.stmt_id,
            e.message_id, e.clock.components,
        )
        for e in result.trace.events
    )
    stats = result.stats.as_dict()
    for key in _BYTE_STATS:
        stats.pop(key, None)
    return (
        events, stats, result.final_env, result.completion_time,
        result.verdict,
    )


def _surviving_entries(sim) -> list:
    return [
        checkpoint
        for rank in range(sim.n)
        for checkpoint in sim.storage.history(rank)
    ]


def _encoded_bytes(entries: list) -> int:
    return sum(len(stored_payload(checkpoint)) for checkpoint in entries)


def _commit_wall_s(entries: list, repeats: int) -> float:
    """Best-of-N seconds to serialise + CRC every entry's wire payload."""
    best = float("inf")
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for checkpoint in entries:
                zlib.crc32(stored_payload(checkpoint))
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def checkpoint_payload_report(repeats: int = 5) -> BenchReport:
    """Measure every payload case under both content modes."""
    cases: list[BenchCase] = []
    for case in PAYLOAD_CASES:
        base = case.make_program()
        sim_full, result_full = _run(base, case, "full")
        sim_min, result_min = _run(base, case, MINIMIZED_MODE)
        full_entries = _surviving_entries(sim_full)
        min_entries = _surviving_entries(sim_min)
        full_bytes = sum(c.payload_bytes for c in full_entries)
        min_bytes = sum(c.payload_bytes for c in min_entries)
        # The reported byte counts are structural sizes; a row is only
        # valid if they equal what the encoder actually produces.
        identical = (
            _fingerprint(result_full) == _fingerprint(result_min)
            and full_bytes == _encoded_bytes(full_entries)
            and min_bytes == _encoded_bytes(min_entries)
        )
        cases.append(
            BenchCase(
                name=case.name,
                reference_wall_s=_commit_wall_s(full_entries, repeats),
                optimized_wall_s=_commit_wall_s(min_entries, repeats),
                ops=len(min_entries),
                identical=identical,
                extra={
                    "full_payload_bytes": full_bytes,
                    "minimized_payload_bytes": min_bytes,
                    "payload_reduction": (
                        round(full_bytes / min_bytes, 3)
                        if min_bytes else None
                    ),
                },
            )
        )
    return BenchReport(benchmark="checkpoint", cases=tuple(cases))


def format_checkpoint_payload(report: BenchReport) -> str:
    """Aligned text table (the JSON is the canonical artifact)."""
    lines = [
        f"{'case':>18s} {'full':>9s} {'minimized':>10s} {'bytes':>7s} "
        f"{'commit':>8s} {'entries':>8s} {'identical':>9s}"
    ]
    for case in report.cases:
        full_bytes = case.extra.get("full_payload_bytes", 0)
        min_bytes = case.extra.get("minimized_payload_bytes", 0)
        reduction = case.extra.get("payload_reduction") or 0.0
        lines.append(
            f"{case.name:>18s} {full_bytes:>8d}B {min_bytes:>9d}B "
            f"{reduction:>6.2f}x {case.speedup:>7.2f}x "
            f"{case.ops:>8d} {str(case.identical):>9s}"
        )
    return "\n".join(lines)
