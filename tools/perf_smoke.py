#!/usr/bin/env python3
"""CI perf smoke: guard the engine/transform/checkpoint optimizations.

Re-runs the microbenchmarks behind ``results/BENCH_engine.json``,
``results/BENCH_checkpoint.json``, and
``results/BENCH_transform.json`` and compares the *speedup ratios*
(reference implementation / optimized implementation, both timed on the
current machine) against the committed baselines. Absolute wall times
are machine-dependent and never compared; a ratio is portable because
both sides pay the same hardware tax.

The comparison is the general metrics-diff engine
(:mod:`repro.obs.diff` — the same logic behind ``repro metrics diff``)
with two threshold rules:

- ``case.*.speedup`` must keep at least **half** its committed ratio —
  a deliberately loose bound so shared-runner noise can't flake the
  job, while a real regression (optimized path degrading toward the
  reference) still trips it;
- ``case.*.identical`` must stay at 1.0 — a benchmark row is invalid
  if the two implementations diverge.

A failure names the specific regressing case with its before/after
ratio (the diff report's *worst regression* line), so the red CI line
is a diagnosis, not a boolean.

Two absolute (machine-independent) checks ride along: every required
engine case must keep the compiled backend at least as fast as the
reference stack, and every checkpoint-payload case must reproduce the
committed byte counts exactly, keep the minimized wire bytes at or
below the full-content bytes, and meet its documented reduction floor.

Run from the repository root::

    PYTHONPATH=src python tools/perf_smoke.py [--baseline-dir results]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The perf-smoke gate, expressed as diff-engine threshold rules.
THRESHOLD_RULES = (
    ("case.*.speedup", 0.5),
    ("case.*.identical", 1.0),
)

#: Engine cases the compiled backend must cover. A missing row means
#: the benchmark silently stopped exercising the compiled backend; a
#: speedup below 1.0 means compiled execution regressed to (or under)
#: the tree-walking reference stack measured on the same machine.
REQUIRED_ENGINE_CASES = (
    "stencil_1d_n192",
    "stencil_1d_n256",
    "token_ring_n192",
)


def check_compiled_floor(report) -> list[str]:
    """Assert every required engine case exists and compiled >= reference.

    The ratio rules above compare against the *committed* baseline; this
    check is absolute — whatever the baseline says, the compiled backend
    must never be slower than the reference interpreter timed in the
    same process on the same inputs.
    """
    by_name = {case.name: case for case in report.cases}
    problems = []
    for name in REQUIRED_ENGINE_CASES:
        case = by_name.get(name)
        if case is None:
            problems.append(
                f"{report.benchmark}/{name}: no compiled-backend entry "
                "in the fresh report"
            )
        elif case.speedup < 1.0:
            problems.append(
                f"{report.benchmark}/{name}: compiled backend is slower "
                f"than the reference stack ({case.optimized_wall_s:.3f}s "
                f"vs {case.reference_wall_s:.3f}s)"
            )
    return problems


#: Payload cases with a documented minimum byte reduction
#: (``docs/architecture.md``, *Checkpoint content*).
REQUIRED_PAYLOAD_REDUCTION = {"stencil_halo_n8": 2.0}


def check_payload_floor(report, baseline_path: Path) -> list[str]:
    """Pin the checkpoint payload byte counts, exactly.

    The byte counts are exact (sizes of the canonical encoding, not
    timings), so every bound here is absolute: the fresh counts must
    *equal* the committed ones (any drift is a wire-format or sizer
    change and needs a regenerated baseline), ``pruned+delta`` content
    must never exceed the full snapshot, and the documented reduction
    floors must hold. ``identical`` is also pinned here so an invalid
    row fails even when the baseline diff is noisy.
    """
    committed = {}
    if baseline_path.exists():  # check_report names a missing baseline
        committed = {
            case["name"]: case
            for case in json.loads(baseline_path.read_text())["cases"]
        }
    fresh = {case.name: case for case in report.cases}
    problems = [
        f"{report.benchmark}/{name}: case missing from the fresh report"
        for name in REQUIRED_PAYLOAD_REDUCTION.keys() - fresh.keys()
    ]
    for name, case in fresh.items():
        where = f"{report.benchmark}/{name}"
        sizes = {
            key: case.extra.get(key)
            for key in ("full_payload_bytes", "minimized_payload_bytes")
        }
        full, minimized = sizes.values()
        if full is None or minimized is None:
            problems.append(
                f"{where}: missing payload byte counts in the fresh report"
            )
            continue
        for key, size in sizes.items():
            before = committed.get(name, {}).get(key)
            if size != before:
                problems.append(
                    f"{where}: {key} is {size}, committed {before} — "
                    "wire format or sizer changed"
                )
        if minimized > full:
            problems.append(
                f"{where}: minimized payload ({minimized}B) exceeds full "
                f"payload ({full}B)"
            )
        floor = REQUIRED_PAYLOAD_REDUCTION.get(name, 0.0)
        if full < floor * minimized:
            problems.append(
                f"{where}: payload reduction {full / minimized:.3f}x is "
                f"below the documented {floor}x"
            )
        if not case.identical:
            problems.append(
                f"{where}: content modes diverged, or reported sizes "
                "differ from the encoded payloads"
            )
    return problems


def check_report(current, baseline_path: Path) -> list[str]:
    """Diff a fresh report against its committed baseline file.

    Returns a list of problem strings (empty = pass), each naming the
    regressing case and its before/after values.
    """
    from repro.obs.diff import Threshold, diff_metrics, flatten_metrics

    if not baseline_path.exists():
        return [f"missing committed baseline {baseline_path}"]
    report = diff_metrics(
        flatten_metrics(json.loads(baseline_path.read_text())),
        flatten_metrics(current.as_dict()),
        rules=[
            (pattern, Threshold(min_ratio=floor))
            for pattern, floor in THRESHOLD_RULES
        ],
    )
    problems = []
    for delta in report.failures:
        if delta.name.endswith(".identical"):
            problems.append(
                f"{current.benchmark}/{delta.name}: implementations "
                "disagree — benchmark results are invalid"
            )
        else:
            problems.append(
                f"{current.benchmark}/{delta.name}: speedup "
                f"{delta.after:.2f}x fell below half the committed "
                f"{delta.before:.2f}x (ratio {delta.ratio:.2f})"
            )
    worst = report.worst
    if worst is not None:
        problems.append(
            f"worst regression: {current.benchmark}/{worst.name} "
            f"({worst.before:g} -> {worst.after:g}, "
            f"ratio {worst.ratio:.3f})"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir", default="results", metavar="DIR",
        help="directory holding the committed BENCH_*.json files",
    )
    args = parser.parse_args(argv)
    baseline_dir = Path(args.baseline_dir)

    from repro.bench.checkpoint_payload import (
        checkpoint_payload_report,
        format_checkpoint_payload,
    )
    from repro.bench.engine_hotpath import (
        engine_hotpath_report,
        format_engine_hotpath,
    )
    from repro.bench.transform_hotpath import (
        format_transform_hotpath,
        transform_hotpath_report,
    )

    problems: list[str] = []
    engine = engine_hotpath_report()
    print(format_engine_hotpath(engine))
    problems += check_report(engine, baseline_dir / "BENCH_engine.json")
    problems += check_compiled_floor(engine)
    checkpoint = checkpoint_payload_report()
    print()
    print(format_checkpoint_payload(checkpoint))
    problems += check_report(
        checkpoint, baseline_dir / "BENCH_checkpoint.json"
    )
    problems += check_payload_floor(
        checkpoint, baseline_dir / "BENCH_checkpoint.json"
    )
    transform = transform_hotpath_report()
    print()
    print(format_transform_hotpath(transform))
    problems += check_report(transform, baseline_dir / "BENCH_transform.json")

    print()
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("perf smoke OK: all speedups within 2x of committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
