#!/usr/bin/env python3
"""Regenerate every quantitative artifact in EXPERIMENTS.md.

Writes one plain-text file per experiment into ``results/`` (created if
needed). Run from the repository root::

    PYTHONPATH=src python tools/regenerate_results.py [output_dir] [--only NAME]

Every generator is deterministic (fixed seeds, no wall clock), so a
re-run reproduces the committed files byte for byte;
``tests/test_tools.py`` holds them to that.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _with_shape_verdict(table: str, problems: list[str]) -> str:
    verdict = "; ".join(problems) if problems else "ALL HOLD"
    return f"{table}\n\nshape claims: {verdict}\n"


def figure8() -> str:
    """Figure 8: overhead ratio vs number of processes."""
    from repro.analysis.comparison import figure8_series
    from repro.bench.figures import figure8_table, shape_check_figure8

    return _with_shape_verdict(
        figure8_table(), shape_check_figure8(figure8_series())
    )


def figure9() -> str:
    """Figure 9: overhead ratio vs message setup time."""
    from repro.analysis.comparison import figure9_series
    from repro.bench.figures import figure9_table, shape_check_figure9

    return _with_shape_verdict(
        figure9_table(), shape_check_figure9(figure9_series())
    )


def markov_validation() -> str:
    """Figure 7 cross-validation: four ways to compute Gamma."""
    from repro.analysis import (
        IntervalMarkovChain,
        STARFISH_DEFAULTS,
        gamma_closed_form,
        simulate_interval_time,
        system_failure_rate,
    )

    p = STARFISH_DEFAULTS
    lam = system_failure_rate(p, 256)
    args = (p.interval, p.checkpoint_overhead, p.recovery_overhead,
            p.checkpoint_latency)
    chain = IntervalMarkovChain(lam, *args)
    monte = simulate_interval_time(lam, *args, trials=20_000)
    lines = [
        f"lambda (n=256)     : {lam:.6e}",
        f"Gamma closed form  : {gamma_closed_form(lam, *args):.6f}",
        f"Gamma two-path     : {chain.expected_time_two_path():.6f}",
        f"Gamma linear system: {chain.expected_time_linear_system():.6f}",
        f"Gamma Monte Carlo  : {monte.mean:.4f} +/- {monte.std_error:.4f}",
    ]
    return "\n".join(lines) + "\n"


def protocol_comparison() -> str:
    """Every protocol on one workload, same seed and failure plan."""
    from repro.bench.workloads import (
        ProtocolRunSummary,
        run_protocol_comparison,
        standard_workloads,
    )
    from repro.runtime import FailurePlan

    workload = standard_workloads(steps=12)[0]
    rows = run_protocol_comparison(
        workload, period=6.0, failure_plan=FailurePlan.single(14.3, 2)
    )
    return "\n".join(
        [ProtocolRunSummary.header(), *(row.row() for row in rows)]
    ) + "\n"


def optimal_intervals() -> str:
    """Per-protocol optimal checkpoint intervals."""
    from repro.analysis.sensitivity import optimal_table

    return optimal_table() + "\n"


def payoff() -> str:
    """Expected completion with/without checkpointing; break-even."""
    from repro.analysis import STARFISH_DEFAULTS, system_failure_rate
    from repro.analysis.availability import (
        break_even_work,
        expected_completion_with_checkpointing,
        expected_completion_without_checkpointing,
    )

    p = STARFISH_DEFAULTS
    lam = system_failure_rate(p, 256)
    args = dict(
        interval=p.interval,
        total_overhead=p.checkpoint_overhead,
        recovery=p.recovery_overhead,
        total_latency=p.checkpoint_latency,
    )
    lines = [f"{'work':>8s} {'protected':>14s} {'unprotected':>16s}"]
    for hours in (1, 6, 24):
        work = hours * 3600.0
        protected = expected_completion_with_checkpointing(work, lam, **args)
        unprotected = expected_completion_without_checkpointing(work, lam)
        lines.append(f"{hours:>6d}h {protected:>14.0f} {unprotected:>16.0f}")
    point = break_even_work(lam, **args)
    lines.append(f"break-even work: {point.work:.0f} s")
    return "\n".join(lines) + "\n"


def _with_runs_lost(table: str, rows, absorbed_by: str) -> str:
    lost = sum(r.runs - r.completed for r in rows)
    verdict = f"NONE ({absorbed_by})" if lost == 0 else str(lost)
    return f"{table}\n\nruns lost: {verdict}\n"


def fault_tolerance() -> str:
    """Storage-fault sweep: degraded recovery absorbs every fault."""
    from repro.bench.fault_tolerance import (
        fault_tolerance_sweep,
        format_fault_table,
    )

    rows = fault_tolerance_sweep()
    return _with_runs_lost(
        format_fault_table(rows), rows,
        "degraded recovery absorbed every fault",
    )


def network_faults() -> str:
    """Network-fault sweep: the reliable transport hides the medium."""
    from repro.bench.network_faults import (
        format_network_table,
        network_fault_sweep,
    )

    rows = network_fault_sweep()
    return _with_runs_lost(
        format_network_table(rows), rows,
        "reliable transport absorbed every network fault",
    )


#: Generator name -> (results file, generator), in regeneration order.
GENERATORS = {
    "figure8": ("figure8.txt", figure8),
    "figure9": ("figure9.txt", figure9),
    "markov_validation": ("figure7_markov.txt", markov_validation),
    "protocol_comparison": ("protocol_comparison.txt", protocol_comparison),
    "optimal_intervals": ("optimal_intervals.txt", optimal_intervals),
    "payoff": ("checkpointing_payoff.txt", payoff),
    "fault_tolerance": ("fault_tolerance.txt", fault_tolerance),
    "network_faults": ("network_faults.txt", network_faults),
}


def main(argv: list[str] | None = None) -> int:
    """Regenerate the result files; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output_dir", nargs="?", default="results",
                        help="directory for the result files")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="regenerate only the named generator(s)")
    args = parser.parse_args(argv)

    names = list(GENERATORS)
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            print(f"error: unknown generator(s) {unknown}; "
                  f"known: {', '.join(names)}", file=sys.stderr)
            return 2
        names = [name for name in names if name in set(args.only)]

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        filename, generate = GENERATORS[name]
        path = out / filename
        path.write_text(generate())
        print(f"wrote {path}")
    print(f"done: {len(names)} result(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
