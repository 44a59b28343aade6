#!/usr/bin/env python
"""Count the cyclic garbage collector's work in benchmark rounds.

Runs untraced rounds of ``bench/run.py``'s workloads in this process
under a ``gc.callbacks`` hook, and prints per workload, each per round:
the collector passes by generation, the objects they collected, the
wall they took and their share of the round's wall (raw seconds, not
the benchmark's calibrated ones). The warm-up round and the fault-free
twins run first, outside the probe, as in the benchmark. ``--root``
probes another checkout of this repository (its ``src`` and
``bench``), which gives a before/after pair::

    python tools/gc_probe.py --rounds 5
    python tools/gc_probe.py --root ../base --workload steady_full

The bench's traced pass drives the layers directly rather than through
the campaign executor, so a change in how cells run under the collector
shows here and in the untraced ``cells_per_s``, not in its layer table.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class CollectorProbe:
    """A ``gc.callbacks`` hook summing passes, collections and wall."""

    def __init__(self) -> None:
        self.passes = [0, 0, 0]
        self.collected = 0
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        self.passes[info["generation"]] += 1
        self.collected += info["collected"]

    def __enter__(self) -> "CollectorProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def probe_workload(workload: str, rounds: int) -> dict:
    """Collector work per round over *rounds* measured rounds."""
    import gen
    import harness

    tmp = Path(tempfile.mkdtemp(prefix=f"gc_probe_{workload}_"))
    try:
        prepared = harness.set_up(workload, gen.DEFAULT_SEED, tmp / "setup")
        wall = 0.0
        with CollectorProbe() as probe:
            for index in range(rounds):
                workdir = tmp / f"round_{index}"
                wall += harness.run_round(prepared.inputs, workdir).raw_wall
                shutil.rmtree(workdir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workload": workload,
        "passes": [count / rounds for count in probe.passes],
        "collected": probe.collected / rounds,
        "gc_ms": 1000 * probe.seconds / rounds,
        "wall_ms": 1000 * wall / rounds,
    }


def describe(row: dict) -> str:
    """One table line of :func:`probe_workload`'s result."""
    gen0, gen1, gen2 = row["passes"]
    return (
        f"{row['workload']:<16s} {sum(row['passes']):>8.1f} "
        f"{gen0:>7.1f} {gen1:>6.1f} {gen2:>6.1f} {row['collected']:>10.1f} "
        f"{row['gc_ms']:>8.2f} {row['wall_ms']:>9.1f} "
        f"{100 * row['gc_ms'] / row['wall_ms']:>6.2f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", type=Path, default=REPO,
        help="checkout to probe (default: this one)",
    )
    parser.add_argument(
        "--workload", action="append",
        help="probe only this workload (repeatable; default: all)",
    )
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import gen

    for workload in args.workload or ():
        if workload not in gen.WORKLOADS:
            parser.error(f"unknown workload {workload!r}")
    print(f"# {root}: per round over {args.rounds} round(s)")
    print(
        f"{'workload':<16s} {'passes':>8s} {'gen0':>7s} {'gen1':>6s} "
        f"{'gen2':>6s} {'collected':>10s} {'gc_ms':>8s} {'wall_ms':>9s} "
        f"{'gc_%':>6s}"
    )
    for workload in args.workload or gen.WORKLOADS:
        print(describe(probe_workload(workload, args.rounds)),
              flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The benchmark's inputs are fixed under this hash seed only.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
