#!/usr/bin/env python3
"""Run the whole benchmark twice on this commit and compare the two sets.

    python3 bench/check_repeat.py [--seed N]

The second run takes the workloads in reverse order. Passes (exit 0)
when ``compare.py`` finds every end-to-end metric of the second run
within its bound of the first, and every deterministic metric and
simulated count identical: the benchmark agrees with itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    benchmark = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    outputs = []
    for name, order in (
        ("repeat_a.json", workloads), ("repeat_b.json", workloads[::-1]),
    ):
        outputs.append(str(out_dir / name))
        command = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--out", outputs[-1], "--order", ",".join(order),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        completed = subprocess.run(command)
        if completed.returncode != 0:
            print(f"error: {' '.join(command)} failed", file=sys.stderr)
            return completed.returncode
    return compare.main(outputs)


if __name__ == "__main__":
    sys.exit(main())
