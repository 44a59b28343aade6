#!/usr/bin/env python3
"""Regenerate every quantitative artifact in EXPERIMENTS.md.

Writes one plain-text file per experiment into ``results/`` (created if
needed). Run from the repository root::

    PYTHONPATH=src python tools/regenerate_results.py [output_dir] [--only NAME]

Every generator is deterministic (fixed seeds, no wall clock), so a
re-run reproduces the committed files byte for byte;
``tests/test_tools.py`` holds them to that. The three simulation
results (the protocol comparison and both fault sweeps) are lists of
``ScenarioSpec`` cells run by ``run_campaign``.
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
        comparison_table,
        protocol_cells,
        standard_workloads,
    )
    from repro.campaign import run_campaign
    from repro.runtime import FaultPlan

    cells = protocol_cells(
        standard_workloads(steps=12)[0],
        period=6.0,
        fault_plan=FaultPlan.single(14.3, 2),
    )
    return comparison_table(cells, run_campaign(cells))


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


#: The fault sweeps' Poisson rates: storage faults per rank, and drops
#: plus duplicates per directed channel, each per simulated second.
STORAGE_RATES = (0.0, 0.01, 0.03, 0.06)
NETWORK_RATES = (0.0, 0.02, 0.05, 0.1)

#: Sweep table column -> (width, format spec); a row is a dict by column.
STORAGE_COLUMNS = {
    "protocol": (14, "s"), "rate": (6, ".2f"), "avail": (6, ".2f"),
    "time": (8, ".2f"), "crash": (6, "d"), "wfail": (6, "d"),
    "torn": (5, "d"), "rot": (4, "d"), "retry": (6, "d"), "fb": (4, "d"),
    "depth": (6, "d"),
}
NETWORK_COLUMNS = {
    "protocol": (14, "s"), "rate": (6, ".2f"), "avail": (6, ".2f"),
    "time": (8, ".2f"), "r": (8, ".4f"), "frames": (7, "d"),
    "retx": (6, "d"), "drop": (5, "d"), "dup": (4, "d"),
}


def _sweep(protocols, rates, plan, seeds=range(4)):
    """Run ring_pipeline (n = 3, 10 steps) over protocol × rate × seed.

    *plan(rate, seed)* draws a cell's fault plan. Every cell runs in one
    campaign; returns one ``(protocol, rate, outcomes)`` group per
    (protocol, rate), its outcomes in seed order.
    """
    from repro.campaign import ScenarioSpec, run_campaign
    from repro.lang.programs import program_source

    groups = [
        (protocol, rate, [
            ScenarioSpec(
                label=f"{protocol}/{rate}/{seed}",
                program=program_source("ring_pipeline"),
                n_processes=3,
                params={"steps": 10},
                protocol=protocol,
                period=6.0,
                fault_plan=plan(rate, seed),
            )
            for seed in seeds
        ])
        for protocol in protocols
        for rate in rates
    ]
    result = run_campaign([cell for _, _, cells in groups for cell in cells])
    return [
        (protocol, rate, [result.cells[cell.label] for cell in cells])
        for protocol, rate, cells in groups
    ]


def _row(protocol, rate, outcomes, totals) -> dict:
    """One sweep row: availability, the mean completion time of the
    completed runs, the deepest recovery fallback, and each *totals*
    stat (column -> stats key) summed over the runs that have stats; a
    run that raised has none and counts as lost."""
    ran = [outcome.stats for outcome in outcomes if outcome.stats is not None]
    times = [outcome.completion_time for outcome in outcomes if outcome.ok]
    row = {
        "protocol": protocol,
        "rate": rate,
        "avail": len(times) / len(outcomes),
        "time": sum(times) / len(times) if times else 0.0,
        "lost": len(outcomes) - len(times),
        "depth": max((s["max_fallback_depth"] for s in ran), default=0),
    }
    row.update(
        {column: sum(s[key] for s in ran) for column, key in totals.items()}
    )
    return row


def storage_sweep_rows() -> list[dict]:
    """Storage faults at rising rates, crashes held at 0.02 per rank."""
    from repro.runtime.failures import exponential_fault_plan

    def plan(rate, seed):
        return exponential_fault_plan(
            3, 30.0, failure_rate=0.02, storage_fault_rate=rate,
            seed=seed, max_failures=2,
        )

    totals = {
        "crash": "failures", "wfail": "storage_write_failures",
        "torn": "torn_writes", "rot": "bit_rot_injected",
        "retry": "storage_retries", "fb": "recovery_fallbacks",
    }
    return [
        _row(protocol, rate, outcomes, totals)
        for protocol, rate, outcomes in _sweep(
            ("appl-driven", "uncoordinated"), STORAGE_RATES, plan
        )
    ]


def network_sweep_rows() -> list[dict]:
    """Drops and duplicates at rising rates and no crashes; ``r`` is
    Γ/T − 1 against the protocol's one fault-free baseline cell."""
    from repro.runtime.failures import exponential_fault_plan

    def plan(rate, seed):
        return exponential_fault_plan(
            3, 30.0, drop_rate=rate, duplicate_rate=rate, seed=seed
        )

    protocols = ("appl-driven", "uncoordinated", "msg-logging")
    baseline = {
        protocol: outcomes[0].completion_time
        for protocol, _, outcomes in _sweep(
            protocols, ("baseline",), lambda *_: None, seeds=(0,)
        )
    }
    totals = {
        "frames": "frames_sent", "retx": "retransmits",
        "drop": "dropped_frames", "dup": "duplicate_frames",
    }
    rows = []
    for protocol, rate, outcomes in _sweep(protocols, NETWORK_RATES, plan):
        row = _row(protocol, rate, outcomes, totals)
        base = baseline[protocol]
        row["r"] = row["time"] / base - 1.0 if base and row["avail"] else 0.0
        rows.append(row)
    return rows


def _sweep_table(columns, rows, absorbed_by: str) -> str:
    """*rows* as an aligned table, then the count of runs lost."""
    lines = [
        " ".join(f"{name:>{width}s}" for name, (width, _) in columns.items())
    ]
    lines += [
        " ".join(
            f"{row[name]:>{width}{spec}}"
            for name, (width, spec) in columns.items()
        )
        for row in rows
    ]
    lost = sum(row["lost"] for row in rows)
    verdict = f"NONE ({absorbed_by})" if lost == 0 else str(lost)
    return "\n".join(lines) + f"\n\nruns lost: {verdict}\n"


def fault_tolerance() -> str:
    """Storage-fault sweep: degraded recovery absorbs every fault."""
    return _sweep_table(
        STORAGE_COLUMNS, storage_sweep_rows(),
        "degraded recovery absorbed every fault",
    )


def network_faults() -> str:
    """Network-fault sweep: the reliable transport hides the medium."""
    return _sweep_table(
        NETWORK_COLUMNS, network_sweep_rows(),
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
