#!/usr/bin/env python3
"""Regenerate ``bench/expected/<workload>.json`` from the reference stack.

    python3 bench/regen_expected.py [--seed N] [--workload NAME ...]

Each file holds, per cell of the workload under the seed, the digest of
its outcome on the *reference* backend (the independent tree-walking
interpreter — never the compiled backend the benchmark measures) and the
completion time of its fault-free, checkpoint-free twin. Before writing,
the same cells are run on the compiled backend; if the two stacks
disagree on any cell the tool refuses and writes nothing, because one of
them is wrong and an expectation file must not take a side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import harness  # noqa: E402
from repro.campaign import dump_campaign, load_campaign, run_campaign  # noqa: E402


def campaign_text(inputs: gen.Inputs) -> str:
    """The campaign file of *inputs* (transform jobs are run for it)."""
    if inputs.jobs is None:
        return inputs.campaign_text
    with tempfile.TemporaryDirectory() as cache_dir:
        specs, _, _, _ = harness.transform_jobs(
            inputs.jobs, Path(cache_dir), harness.Calibrator()
        )
    return dump_campaign(specs)


def regenerate(workload: str, seed: int) -> bool:
    """Write one expectation file; False when the stacks disagree."""
    inputs = gen.make_inputs(workload, seed)
    text = campaign_text(inputs)
    compiled = {
        label: harness.outcome_digest(cell)
        for label, cell in run_campaign(load_campaign(text), jobs=1).cells.items()
    }
    reference = harness.reference_digests(text)
    disagree = sorted(l for l in reference if reference[l] != compiled[l])
    if disagree:
        print(
            f"{workload}: compiled and reference stacks disagree on "
            f"{len(disagree)} cell(s): {', '.join(disagree)}; not writing",
            file=sys.stderr,
        )
        return False
    twins = harness.run_twins(text, harness.Calibrator())
    path = harness.EXPECTED_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "seed": seed,
        "seed_invariant": inputs.seed_invariant,
        "cells": {
            label: {
                "digest": reference[label],
                "twin_completion_time": twins[label]["completion_time"],
            }
            for label in sorted(reference)
        },
    }, indent=1) + "\n")
    print(f"wrote {path} ({len(reference)} cells)")
    return True


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same convention as bench/run.py: ``input(label)`` values come
        # from ``hash(label)``, so a program that reads inputs has a
        # different outcome under every string-hash seed, and
        # expectations are valid only for the one they were computed
        # under.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument(
        "--workload", action="append", choices=gen.WORKLOADS,
        help="regenerate only this workload (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    results = [
        regenerate(workload, args.seed)
        for workload in args.workload or gen.WORKLOADS
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
