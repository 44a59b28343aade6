#!/usr/bin/env python3
"""Reproduce the paper's evaluation: Figures 8 and 9, plus the
empirical protocol comparison the paper lacks.

Prints:

1. the Figure 8 table (overhead ratio vs number of processes) from the
   closed-form model with the paper's Starfish constants;
2. the Figure 9 table (overhead ratio vs message setup time w_m);
3. a cross-validation of the model against its Markov chain and a
   Monte Carlo simulation; and
4. a simulator-based comparison of all six protocols on the same
   workload with an injected failure, run as one campaign of cells.

Run: ``python examples/protocol_comparison.py``
"""

from repro.analysis import (
    IntervalMarkovChain,
    STARFISH_DEFAULTS,
    figure8_series,
    figure9_series,
    gamma_closed_form,
    simulate_interval_time,
    system_failure_rate,
)
from repro.bench.figures import (
    figure8_table,
    figure9_table,
    shape_check_figure8,
    shape_check_figure9,
)
from repro.bench.workloads import (
    comparison_table,
    protocol_cells,
    standard_workloads,
)
from repro.campaign import run_campaign
from repro.runtime import FaultPlan


def main() -> None:
    print("=== Figure 8: overhead ratio vs number of processes ===")
    print(figure8_table())
    problems = shape_check_figure8(figure8_series())
    print(f"shape claims: {'ALL HOLD' if not problems else problems}")

    print("\n=== Figure 9: the communication setup (w_m) effect ===")
    print(figure9_table())
    problems = shape_check_figure9(figure9_series())
    print(f"shape claims: {'ALL HOLD' if not problems else problems}")

    print("\n=== Model cross-validation (Figure 7 chain) ===")
    lam = system_failure_rate(STARFISH_DEFAULTS, 256)
    p = STARFISH_DEFAULTS
    args = (p.interval, p.checkpoint_overhead, p.recovery_overhead,
            p.checkpoint_latency)
    chain = IntervalMarkovChain(lam, *args)
    closed = gamma_closed_form(lam, *args)
    monte = simulate_interval_time(lam, *args, trials=20_000)
    print(f"Γ closed form     : {closed:.4f}")
    print(f"Γ two-path        : {chain.expected_time_two_path():.4f}")
    print(f"Γ linear system   : {chain.expected_time_linear_system():.4f}")
    print(f"Γ Monte Carlo     : {monte.mean:.4f} ± {monte.std_error:.4f}")

    print("\n=== Empirical comparison (simulator, jacobi, 1 failure) ===")
    cells = protocol_cells(
        standard_workloads(steps=12)[0],
        period=6.0,
        fault_plan=FaultPlan.single(14.3, 2),
    )
    result = run_campaign(cells)
    print(comparison_table(cells, result), end="")
    appl = result.cells["jacobi/appl-driven"].stats
    print(
        f"\napplication-driven: {appl['control_messages']} control messages, "
        f"{appl['forced_checkpoints']} forced checkpoints — coordination-free."
    )


if __name__ == "__main__":
    main()
