#!/usr/bin/env python3
"""How steady is the benchmark? Ten seeds per workload, spread per metric.

    python3 bench/spread.py [--runs 10] [--first-seed 101] [--out PATH]

Runs ``bench/run.py --workload W --seed S --trace 0`` for *runs*
consecutive seeds on every workload, and reports for each end-to-end
metric the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median — the
figure that has to stay inside the metric's bound in ``BENCHMARK.json``,
and that the benchmark is sized to keep below a third of it. Writes the
table to ``bench/results/spread.json``. Exits 1 when a spread exceeds
its bound (``setup_s`` is exempt).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument(
        "--out", default=str(BENCH_DIR / "results" / "spread.json")
    )
    args = parser.parse_args(argv)
    benchmark = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    table: dict[str, dict] = {}
    over = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            completed = subprocess.run(
                [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(benchmark["run_seconds"]),
                    "--trace", "0",
                ],
                capture_output=True, text=True,
            )
            if completed.returncode != 0:
                print(completed.stdout, completed.stderr, file=sys.stderr)
                print(f"error: {workload} seed {seed} failed", file=sys.stderr)
                return 2
            line = json.loads(completed.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        table[workload] = {}
        print(f"== {workload}")
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            exceeded = spread > bounds[name] and name != "setup_s"
            over += exceeded
            table[workload][name] = {
                "median": median, "spread": spread, "bound": bounds[name],
                "values": series,
            }
            print(
                f"  {name:<30s} median {median:<12.6g} spread {spread:.4f} "
                f"bound {bounds[name]:.2f}"
                f"{'  EXCEEDED' if exceeded else ''}"
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "workloads": table}, indent=1) + "\n")
    print(f"# wrote {out}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
