"""Figure tables and the protocol-comparison cells.

Regenerates the data series behind the paper's evaluation figures and
formats them as aligned ASCII tables (the repo has no plotting
dependency). The simulation leg — the standard workloads as
:class:`~repro.campaign.spec.ScenarioSpec` cells, one per protocol, run
on :func:`~repro.campaign.executor.run_campaign` — lives in
:mod:`repro.bench.workloads`. Nothing here reads the wall clock;
``bench/`` measures performance.
"""

from repro.bench.figures import (
    figure8_table,
    figure9_table,
    format_curves,
    shape_check_figure8,
    shape_check_figure9,
)
from repro.bench.workloads import (
    comparison_table,
    protocol_cells,
    standard_workloads,
)

__all__ = [
    "comparison_table",
    "figure8_table",
    "figure9_table",
    "format_curves",
    "protocol_cells",
    "shape_check_figure8",
    "shape_check_figure9",
    "standard_workloads",
]
