#!/usr/bin/env python
"""Compare two checkouts on benchmark workloads in alternating pairs.

Runs ``bench/run.py --workload W --trace 0 --rounds R`` in checkout A
and in checkout B, ``--pairs`` times each; ``--seed N`` is passed on to
every run (the default is the benchmark's own seed). Every pair flips which side
goes first, so a drift in the host's load falls on both sides alike.
``--workload`` takes one workload or a comma-separated list; each pair
runs every listed workload on both sides before the next pair starts,
so one invocation checks them all on one schedule. For each workload
and each end-to-end metric of A's ``BENCHMARK.json`` it prints each
side's median, the ratio B/A of the medians, the spread of A's runs
(the distance between their quartiles, which a claimed gain must
exceed) and in how many pairs B was the better one::

    python tools/ab_pairs.py ../parent . --workload steady_full,steady_minimal --pairs 6 --rounds 10

One parent/change pair can misjudge a workload by more than the
benchmark's 25 % bound: ``transform_sweep`` runs in two modes on one
commit, and ``steady_minimal`` swung by 16-33 % on a change outside its
path. A performance claim is backed by these medians and win counts,
not by one pair. Exits 1 if any run is not ``correct`` or has failures,
or if the two runs of a pair differ in a metric the seeds fix
(:data:`DETERMINISTIC`): such an A/B compares two different programs,
not two speeds of one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: End-to-end metrics fixed by the workload's seeds, not by the host.
DETERMINISTIC = ("stored_bytes_per_checkpoint", "sim_overhead_ratio")


def parse_contract(stdout: str) -> dict:
    """Metric name -> value, from the JSON last line of one run."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise ValueError(
            f"run not correct: {result['failed']} of "
            f"{result['attempted']} failed"
        )
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def run_bench(
    checkout: str, workload: str, rounds: int, seed: int | None = None
) -> str:
    """The standard output of one untraced run in *checkout*."""
    command = [
        sys.executable, str(Path(checkout) / "bench" / "run.py"),
        "--workload", workload, "--trace", "0", "--rounds", str(rounds),
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    return subprocess.run(
        command, capture_output=True, text=True, check=True,
    ).stdout


def summarize(metrics: list, runs_a: list, runs_b: list) -> list[str]:
    """One line per end-to-end metric: both medians, B/A, A's
    interquartile range and B's wins."""
    lines = [f"{'metric':<28} {'A median':>12} {'B median':>12} "
             f"{'B/A':>7} {'A IQR':>10} {'B wins':>7}"]
    for metric in metrics:
        name = metric["name"]
        pairs = [
            (a[name], b[name]) for a, b in zip(runs_a, runs_b)
            if a.get(name) is not None and b.get(name) is not None
        ]
        if not pairs:
            lines.append(f"{name:<28} {'-':>12} {'-':>12}")
            continue
        median_a = statistics.median(a for a, _ in pairs)
        median_b = statistics.median(b for _, b in pairs)
        ratio = f"{median_b / median_a:7.3f}" if median_a else f"{'-':>7}"
        if len(pairs) > 1:
            low, _, high = statistics.quantiles([a for a, _ in pairs], n=4)
            spread = f"{high - low:10.4g}"
        else:
            spread = f"{'-':>10}"
        higher = metric["better"] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in pairs)
        lines.append(
            f"{name:<28} {median_a:>12.5g} {median_b:>12.5g} {ratio} "
            f"{spread} {f'{wins}/{len(pairs)}':>7}"
        )
    return lines


def main(argv=None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="checkout A (the base)")
    parser.add_argument("b", help="checkout B (the change)")
    parser.add_argument(
        "--workload", required=True,
        help="a workload, or several separated by commas",
    )
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed of every run (default: the benchmark's)",
    )
    args = parser.parse_args(argv)
    metrics = json.loads(
        (Path(args.a) / "BENCHMARK.json").read_text()
    )["end_to_end"]
    workloads = args.workload.split(",")
    runs = {workload: ([], []) for workload in workloads}
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for workload in workloads:
            for side in order:
                checkout = (args.a, args.b)[side]
                try:
                    runs[workload][side].append(parse_contract(
                        run(checkout, workload, args.rounds, args.seed)
                    ))
                except ValueError as error:
                    print(f"error: {checkout}: {workload}: {error}",
                          file=sys.stderr)
                    return 1
    status = 0
    for workload, (runs_a, runs_b) in runs.items():
        seed = "" if args.seed is None else f", seed {args.seed}"
        print(f"{workload}: {args.pairs} alternating pairs, "
              f"{args.rounds} rounds a run{seed}")
        print("\n".join(summarize(metrics, runs_a, runs_b)))
        for pair, (run_a, run_b) in enumerate(zip(runs_a, runs_b), 1):
            differ = [
                name for name in DETERMINISTIC
                if run_a.get(name) != run_b.get(name)
            ]
            if differ:
                print(f"error: {workload}: pair {pair}: "
                      f"{', '.join(differ)} differ: the two sides run "
                      "different programs", file=sys.stderr)
                status = 1
                break
    return status


if __name__ == "__main__":
    sys.exit(main())
