"""Figure and workload harness.

Regenerates the data series behind the paper's evaluation figures and
formats them as aligned ASCII tables (the repo has no plotting
dependency). Simulation-based experiments — the validation runs beyond
the paper's analytic study — live in :mod:`repro.bench.workloads`.
Nothing here reads the wall clock; ``bench/`` measures performance.
"""

from repro.bench.figures import (
    figure8_table,
    figure9_table,
    format_curves,
    shape_check_figure8,
    shape_check_figure9,
)
from repro.bench.workloads import (
    ProtocolRunSummary,
    WorkloadSpec,
    run_protocol_comparison,
    standard_workloads,
)

__all__ = [
    "ProtocolRunSummary",
    "WorkloadSpec",
    "figure8_table",
    "figure9_table",
    "format_curves",
    "run_protocol_comparison",
    "shape_check_figure8",
    "shape_check_figure9",
    "standard_workloads",
]
