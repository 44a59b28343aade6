"""Result-file generators behind ``tools/regenerate_results.py``.

Every quantitative artifact in ``EXPERIMENTS.md`` is produced by one
named generator returning ``(filename, body)``. The registry lives here
— in an importable module rather than the tool script — so the
campaign executor can ship generator names to worker processes and
regenerate the whole set in parallel (``--jobs``), with the tool
reduced to argument parsing and file writing.
"""

from __future__ import annotations


def figure8() -> tuple[str, str]:
    """Figure 8: overhead ratio vs number of processes."""
    from repro.analysis.comparison import figure8_series
    from repro.bench.figures import figure8_table, shape_check_figure8

    problems = shape_check_figure8(figure8_series())
    body = figure8_table() + "\n\nshape claims: " + (
        "ALL HOLD" if not problems else "; ".join(problems)
    ) + "\n"
    return "figure8.txt", body


def figure9() -> tuple[str, str]:
    """Figure 9: overhead ratio vs message setup time."""
    from repro.analysis.comparison import figure9_series
    from repro.bench.figures import figure9_table, shape_check_figure9

    problems = shape_check_figure9(figure9_series())
    body = figure9_table() + "\n\nshape claims: " + (
        "ALL HOLD" if not problems else "; ".join(problems)
    ) + "\n"
    return "figure9.txt", body


def markov_validation() -> tuple[str, str]:
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
    return "figure7_markov.txt", "\n".join(lines) + "\n"


def protocol_comparison() -> tuple[str, str]:
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
    body = ProtocolRunSummary.header() + "\n" + "\n".join(
        row.row() for row in rows
    ) + "\n"
    return "protocol_comparison.txt", body


def optimal_intervals() -> tuple[str, str]:
    """Per-protocol optimal checkpoint intervals."""
    from repro.analysis.sensitivity import optimal_table

    return "optimal_intervals.txt", optimal_table() + "\n"


def payoff() -> tuple[str, str]:
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
    return "checkpointing_payoff.txt", "\n".join(lines) + "\n"


def fault_tolerance() -> tuple[str, str]:
    """Storage-fault sweep: degraded recovery absorbs every fault."""
    from repro.bench.fault_tolerance import (
        fault_tolerance_sweep,
        format_fault_table,
    )

    rows = fault_tolerance_sweep()
    lost = sum(r.runs - r.completed for r in rows)
    body = format_fault_table(rows) + "\n\nruns lost: " + (
        "NONE (degraded recovery absorbed every fault)"
        if lost == 0 else str(lost)
    ) + "\n"
    return "fault_tolerance.txt", body


def network_faults() -> tuple[str, str]:
    """Network-fault sweep: the reliable transport hides the medium."""
    from repro.bench.network_faults import (
        format_network_table,
        network_fault_sweep,
    )

    rows = network_fault_sweep()
    lost = sum(r.runs - r.completed for r in rows)
    body = format_network_table(rows) + "\n\nruns lost: " + (
        "NONE (reliable transport absorbed every network fault)"
        if lost == 0 else str(lost)
    ) + "\n"
    return "network_faults.txt", body


def obs_overhead() -> tuple[str, str]:
    """Observability overhead and byte-identity proofs."""
    from repro.bench.obs_overhead import (
        format_obs_overhead,
        obs_overhead_report,
    )

    report = obs_overhead_report()
    return "obs_overhead.txt", format_obs_overhead(report) + "\n"


def campaign_scaling() -> tuple[str, str]:
    """Campaign executor scaling + transform-cache hit rate."""
    from repro.bench.campaign_scaling import (
        campaign_scaling_report,
        format_campaign_scaling,
    )

    report = campaign_scaling_report()
    return "campaign_scaling.txt", format_campaign_scaling(report) + "\n"


#: Registry of all generators, in regeneration order.
RESULT_GENERATORS = {
    "figure8": figure8,
    "figure9": figure9,
    "markov_validation": markov_validation,
    "protocol_comparison": protocol_comparison,
    "optimal_intervals": optimal_intervals,
    "payoff": payoff,
    "fault_tolerance": fault_tolerance,
    "network_faults": network_faults,
    "obs_overhead": obs_overhead,
    "campaign_scaling": campaign_scaling,
}


def render_result(name: str) -> tuple[str, str]:
    """Campaign-executor worker: run the generator called *name*."""
    return RESULT_GENERATORS[name]()
