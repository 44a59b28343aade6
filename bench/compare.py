#!/usr/bin/env python3
"""Compare two results of ``bench/run.py``: ``compare.py A.json B.json``.

For every workload in both files and every end-to-end metric of
``BENCHMARK.json``, prints both values, the change of B relative to A
(A is the base of every percentage), and a verdict:

``ok``          B is no worse than A by more than the metric's bound;
``worse``       B is worse than A by more than the bound, a deterministic
                metric differs at all between runs of one seed, or more
                cells failed;
``unresolved``  the change is within the bound, but the rounds of one of
                the two runs spread wider than the bound, so "unchanged"
                cannot be told from noise.

Deterministic metrics (simulated time and stored bytes) and, when both
files carry a traced pass, every per-layer count must match exactly for
equal seeds. Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pure functions of the inputs: any difference at equal seeds is a change
#: of simulated behaviour, whatever its size or direction.
DETERMINISTIC = ("stored_bytes_per_checkpoint", "sim_overhead_ratio")
#: Metrics derived from the measured rounds' walls, to which the recorded
#: round-to-round spread applies.
ROUND_TIMED = (
    "cells_per_s", "sim_steps_per_s", "cell_wall_p50_ms", "cell_wall_p90_ms",
)
COUNT_UNITS = ("count", "B")


def load_workloads(path: str) -> dict[str, dict]:
    """``{workload: result}`` from a merged or a single-workload file."""
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def verdict(spec: dict, a: dict, b: dict, name: str) -> tuple[str, float]:
    """``(verdict, relative change of B against A)`` for one metric."""
    value_a = a["metrics"][name]["value"]
    value_b = b["metrics"][name]["value"]
    if value_a is None or value_b is None:
        return "unresolved", float("nan")
    change = (value_b - value_a) / value_a if value_a else 0.0
    if name in DETERMINISTIC and a["seed"] == b["seed"]:
        return ("ok" if value_a == value_b else "worse"), change
    worse_by = change if spec["better"] == "lower" else -change
    if worse_by > spec["bound"]:
        return "worse", change
    if name in ROUND_TIMED:
        spreads = [
            r.get("round_wall_iqr_share") for r in (a, b)
            if r.get("round_wall_iqr_share") is not None
        ]
        if spreads and max(spreads) > spec["bound"]:
            return "unresolved", change
    return "ok", change


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    """Print the comparison; the number of ``worse`` verdicts."""
    results_a, results_b = load_workloads(path_a), load_workloads(path_b)
    worse = 0
    print(
        f"{'workload':<16s} {'metric':<28s} {'A':>14s} {'B':>14s} "
        f"{'B vs A':>9s}  verdict"
    )
    for workload in results_a:
        if workload not in results_b:
            continue
        a, b = results_a[workload], results_b[workload]
        if "metrics" in a and "metrics" in b:
            for spec in benchmark["end_to_end"]:
                name = spec["name"]
                outcome, change = verdict(spec, a, b, name)
                worse += outcome == "worse"
                print(
                    f"{workload:<16s} {name:<28s} "
                    f"{a['metrics'][name]['value']!s:>14.14s} "
                    f"{b['metrics'][name]['value']!s:>14.14s} "
                    f"{change:>+8.2%}  {outcome}"
                )
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        outcome = "worse" if share_b > share_a else "ok"
        worse += outcome == "worse"
        print(
            f"{workload:<16s} {'failed_share':<28s} {share_a:>14.6g} "
            f"{share_b:>14.6g} {'':>9s}  {outcome}"
        )
        if a["seed"] != b["seed"]:
            continue
        layers_a = a.get("layer_metrics", {})
        layers_b = b.get("layer_metrics", {})
        for name in layers_a.keys() & layers_b.keys():
            metric_a, metric_b = layers_a[name], layers_b[name]
            if (
                metric_a["unit"] in COUNT_UNITS
                and metric_a["value"] != metric_b["value"]
            ):
                worse += 1
                print(
                    f"{workload:<16s} {name:<28s} "
                    f"{metric_a['value']!s:>14.14s} "
                    f"{metric_b['value']!s:>14.14s} {'':>9s}  worse "
                    "(simulated count differs)"
                )
    return worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = compare(argv[0], argv[1], benchmark)
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
