#!/usr/bin/env python
"""Kill-and-resume smoke: SIGKILL a campaign mid-flight, resume, diff.

The acceptance contract of the resilient executor, exercised end to
end against the real CLI:

1. run a clean serial campaign → ``clean.json`` (the reference
   artifact);
2. start the same campaign with ``--jobs 2 --resume journal.jsonl`` in
   a subprocess, wait until the journal proves at least one cell
   finished, then SIGKILL the whole process group mid-flight;
3. re-run the same command to completion (the resume pass);
4. assert the resumed artifact is **byte-identical** to the clean one
   and that the resume pass actually skipped journalled cells;
5. assert the two runs' metric rollups (``--metrics-out``) have
   identical ``aggregate`` and ``per_cell`` sections. The cells are
   observed, so the clean run rolls up from the registries its cells
   folded from their live logs; in the resumed run the journal-served
   cells fold their parsed event logs and the rest arrive live from
   ``--jobs 2`` workers.

Exit code 0 on success, 1 on any violated expectation. Tier-1 runs it
through ``tests/integration/test_kill_resume.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _campaign_file(path: Path, steps: int, seeds: int) -> int:
    """Write a campaign big/slow enough to be killed mid-flight."""
    sys.path.insert(0, str(SRC))
    from repro.campaign import ScenarioSpec, dump_campaign
    from repro.lang.programs import program_source

    specs = []
    for seed in range(seeds):
        for name, n in (("ring_pipeline", 3), ("token_ring", 3)):
            specs.append(ScenarioSpec(
                label=f"{name}/seed{seed}",
                program=program_source(name),
                n_processes=n,
                params={"steps": steps},
                protocol="appl-driven",
                period=6.0,
                seed=seed,
                observe=True,
            ))
    path.write_text(dump_campaign(specs))
    return len(specs)


def _cli(
    campaign: Path, out: Path, jobs: int, journal: Path | None,
    metrics: Path | None = None,
):
    """The ``repro campaign`` argv for one run."""
    argv = [
        sys.executable, "-m", "repro", "campaign", str(campaign),
        "--jobs", str(jobs), "--results-json", str(out),
    ]
    if metrics is not None:
        argv += ["--metrics-out", str(metrics)]
    if journal is not None:
        argv += ["--resume", str(journal)]
    return argv


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}:{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(SRC)
    )
    return env


def _journal_cells(journal: Path) -> int:
    """Completed cell records currently visible in the journal."""
    if not journal.exists():
        return 0
    count = 0
    for line in journal.read_bytes().split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail
        if isinstance(record, dict) and record.get("kind") == "cell":
            count += 1
    return count


def _rollup_sections(path: Path) -> str:
    """The deterministic sections of a ``--metrics-out`` file."""
    rollup = json.loads(path.read_text())
    return json.dumps(
        {"aggregate": rollup["aggregate"], "per_cell": rollup["per_cell"]},
        sort_keys=True,
    )


def main(argv: list[str] | None = None) -> int:
    """Run the kill-and-resume smoke; return the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=40,
                        help="workload steps per cell (bigger = slower "
                             "cells = easier mid-flight kill)")
    parser.add_argument("--seeds", type=int, default=4,
                        help="seeds per workload (cells = 2 * seeds)")
    parser.add_argument("--kill-after-cells", type=int, default=1,
                        help="SIGKILL once this many cells are "
                             "journalled")
    parser.add_argument("--kill-timeout", type=float, default=120.0,
                        help="give up waiting for the journal after "
                             "this many seconds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="resume-smoke-") as tmp:
        work = Path(tmp)
        campaign = work / "campaign.json"
        journal = work / "journal.jsonl"
        clean_json = work / "clean.json"
        resumed_json = work / "resumed.json"
        clean_metrics = work / "clean_metrics.json"
        resumed_metrics = work / "resumed_metrics.json"
        cells = _campaign_file(campaign, args.steps, args.seeds)
        print(f"# campaign of {cells} cells at steps={args.steps}")

        clean = subprocess.run(
            _cli(
                campaign, clean_json, jobs=1, journal=None,
                metrics=clean_metrics,
            ),
            env=_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if clean.returncode != 0:
            print(clean.stdout)
            print("FAIL: clean run did not succeed")
            return 1

        victim = subprocess.Popen(
            _cli(campaign, resumed_json, jobs=2, journal=journal),
            env=_env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + args.kill_timeout
        killed = False
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break  # finished before we could kill it
            if _journal_cells(journal) >= args.kill_after_cells:
                os.killpg(victim.pid, signal.SIGKILL)
                victim.wait()
                killed = True
                break
            time.sleep(0.02)
        else:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()
            print("FAIL: journal never reached the kill threshold")
            return 1
        done = _journal_cells(journal)
        if killed:
            print(f"# SIGKILL'd mid-flight with {done}/{cells} cells "
                  f"journalled")
            if done >= cells:
                print("# note: campaign finished before the kill landed; "
                      "resume pass degenerates to all-hits")
        else:
            print(f"# campaign finished (all {done} cells) before the "
                  f"kill threshold; resume pass still exercised")

        resume = subprocess.run(
            _cli(
                campaign, resumed_json, jobs=2, journal=journal,
                metrics=resumed_metrics,
            ),
            env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        print(resume.stdout, end="")
        if resume.returncode != 0:
            print("FAIL: resume run did not succeed")
            return 1
        if "resume-hits=0" in resume.stdout and done:
            print("FAIL: resume pass skipped no journalled cells")
            return 1

        if clean_json.read_bytes() != resumed_json.read_bytes():
            print("FAIL: resumed artifact differs from clean jobs=1 run")
            return 1
        clean_rollup = _rollup_sections(clean_metrics)
        if '"events_total"' not in clean_rollup:
            print("FAIL: rollup holds no event-derived metrics")
            return 1
        if clean_rollup != _rollup_sections(resumed_metrics):
            print("FAIL: resumed rollup differs from clean jobs=1 run")
            return 1
        print(f"OK: resumed artifact byte-identical to clean run "
              f"({done} cell(s) served from the journal); rollup "
              f"aggregate + per_cell identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
