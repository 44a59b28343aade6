#!/usr/bin/env python3
"""The repo benchmark: end-to-end campaign-cell wall plus a per-layer ledger.

    python3 bench/run.py [--seed N] [--out PATH]
        every workload, one Python process each, run one after the
        other; each does the untraced measurement and then the traced
        pass, and the merged result goes to PATH
        (default bench/out/result.json)

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process: ``--trace 0`` measures the
        end-to-end metrics with tracing off, ``--trace 1`` makes only the
        traced pass and reports the per-layer metrics. The last line of
        standard output is one JSON object with the keys ``correct``,
        ``attempted``, ``failed`` and ``metrics``.

The benchmark runs the ``repro`` sources of the checkout it lives in
(``../src``), never an installed copy, and exits non-zero without a
result when they are not there. See ``bench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: Set-up is repeated and its median reported, so one slow import or one
#: cold file cache does not decide ``setup_s``.
SETUP_REPEATS = 3
#: Untraced rounds a traced-only run makes to have a base to compare with.
TRACE_BASE_ROUNDS = 3


def use_checkout_sources() -> None:
    """Put this checkout's ``src`` first on ``sys.path``, or give up."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro sources under {src}; nothing to measure")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(
            f"error: imported repro from {repro.__file__}, not from {src}"
        )


def default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measure whole rounds for this long (default: "
             "BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="measure exactly this many rounds instead of --seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced measurement only; 1: traced pass only; "
             "default: both",
    )
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument(
        "--order", help="comma-separated workload order (all-workload runs)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_workload(args) -> dict:
    """Measure one workload; the full result as a JSON-ready dict."""
    import gen
    import harness

    import_s = time.perf_counter() - _PROCESS_START
    if args.workload not in gen.WORKLOADS:
        sys.exit(
            f"error: unknown workload {args.workload!r}; known: "
            f"{', '.join(gen.WORKLOADS)}"
        )
    seed = gen.DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None and args.rounds is None:
        seconds = default_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp_{args.workload}_", dir=OUT_DIR))
    result = {
        "workload": args.workload, "seed": seed, "correct": True,
        "attempted": 0, "failed": 0, "messages": [],
    }
    try:
        if args.trace != 1:
            setups = []
            for index in range(SETUP_REPEATS):
                prepared = harness.set_up(
                    args.workload, seed, tmp / f"setup_{index}"
                )
                setups.append(prepared.setup_s)
            setup_s = import_s + statistics.median(setups)
            rounds = harness.measure(prepared, tmp, seconds, args.rounds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failed, messages = harness.check(prepared, rounds)
            cells = len(rounds[-1].cell_walls)
            walls = [r.wall for r in rounds]
            result.update(
                rounds=len(rounds), cells_per_round=cells,
                samples=cells * len(rounds), round_walls_s=walls,
                round_walls_raw_s=[r.raw_wall for r in rounds],
                round_wall_iqr_share=harness.iqr_share(walls),
                setup_walls_s=setups, import_s=import_s,
                metrics=harness.end_to_end(prepared, rounds, setup_s, rss_mb),
            )
            result["attempted"] += cells * len(rounds)
            result["failed"] += len(failed) * len(rounds)
            result["messages"] += messages
            untraced_wall = statistics.median(walls)
        else:
            prepared = harness.set_up(args.workload, seed, tmp / "setup")
            base = harness.measure(prepared, tmp, None, TRACE_BASE_ROUNDS)
            untraced_wall = statistics.median(r.wall for r in base)
        if args.trace != 0:
            import tracing

            layer_metrics, failed, messages, cells = tracing.traced_pass(
                prepared, tmp, untraced_wall,
                OUT_DIR / f"trace_{args.workload}.json",
            )
            result["layer_metrics"] = layer_metrics
            result["attempted"] += cells
            result["failed"] += len(failed)
            result["messages"] += messages
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["correct"] = result["failed"] == 0
    return result


def print_workload(result: dict) -> None:
    """Every metric by name, with its unit and its base."""
    print(f"== {result['workload']} (seed {result['seed']}) ==")
    if "metrics" in result:
        print(
            f"  {result['rounds']} measured rounds x "
            f"{result['cells_per_round']} cells = {result['samples']} "
            f"samples; round wall IQR/median "
            f"{_show(result['round_wall_iqr_share'])}"
        )
        for name, metric in result["metrics"].items():
            print(
                f"  {name:<30s} {_show(metric['value']):>14s} "
                f"{metric['unit']:<8s} [{metric['base']}]"
            )
    for name, metric in result.get("layer_metrics", {}).items():
        print(f"  {name:<38s} {_show(metric['value']):>14s} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(
        f"  {'failed_share':<30s} {_show(share):>14s} ratio    "
        f"[{result['failed']} failed / {result['attempted']} attempted]"
    )
    for message in result["messages"]:
        print(f"  ! {message}")


def _show(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def contract_line(result: dict) -> str:
    """The driver's one-line result: exactly four keys."""
    metrics = {
        name: {"value": metric["value"], "unit": metric["unit"]}
        for section in ("metrics", "layer_metrics")
        for name, metric in result.get(section, {}).items()
    }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Every workload, one process each
# ----------------------------------------------------------------------


def run_all(args) -> dict:
    """Spawn one child per workload, in order; the merged result."""
    import gen

    order = args.order.split(",") if args.order else list(gen.WORKLOADS)
    if sorted(order) != sorted(gen.WORKLOADS):
        sys.exit(f"error: --order must name each of {gen.WORKLOADS} once")
    seed = gen.DEFAULT_SEED if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    merged = {"seed": seed, "order": order, "workloads": {}}
    for workload in order:
        handle, child_out = tempfile.mkstemp(
            prefix=f"result_{workload}_", suffix=".json", dir=OUT_DIR
        )
        os.close(handle)
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), "--out", child_out,
        ]
        if args.rounds is not None:
            command += ["--rounds", str(args.rounds)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        try:
            # The parent prints the report from the child's result file.
            completed = subprocess.run(command, stdout=subprocess.DEVNULL)
            text = Path(child_out).read_text()
        finally:
            os.unlink(child_out)
        if not text:
            sys.exit(
                f"error: workload {workload} exited with code "
                f"{completed.returncode} and no result"
            )
        merged["workloads"][workload] = json.loads(text)
        print_workload(merged["workloads"][workload])
    merged["correct"] = all(
        result["correct"] for result in merged["workloads"].values()
    )
    return merged


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing: set iteration order, and with it timing,
        # must not differ from process to process — and neither must the
        # simulator's ``input(label)`` values, which come from
        # ``hash(label)``.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    use_checkout_sources()
    if args.workload is None:
        merged = run_all(args)
        out = Path(args.out) if args.out else OUT_DIR / "result.json"
        out.write_text(json.dumps(merged, indent=1) + "\n")
        print(f"# wrote {out}")
        return 0 if merged["correct"] else 1
    result = run_workload(args)
    print_workload(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
