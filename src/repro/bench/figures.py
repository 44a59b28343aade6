"""Figure 8 / Figure 9 table generation and shape checks.

The paper's claims about the two evaluation figures are *shapes*, not
absolute numbers (our constants match the paper's, but the claims
worth testing are ordinal):

Figure 8 — overhead ratio vs. number of processes:
  (a) every protocol's ratio increases with n (λ grows with n);
  (b) appl-driven < SaS < C-L at every n (strictly, for n > 1);
  (c) C-L diverges fastest (Θ(n²) message overhead).

Figure 9 — overhead ratio vs. message setup time ``w_m``:
  (a) appl-driven is exactly constant in ``w_m``;
  (b) SaS and C-L increase monotonically;
  (c) C-L's slope exceeds SaS's.

``shape_check_figure8/9`` verify these programmatically; the tier-1
tests assert them and ``tools/regenerate_results.py`` records the
verdict under each table.
"""

from __future__ import annotations

from repro.analysis.comparison import (
    DEFAULT_FIGURE9_PROCESSES,
    DEFAULT_PROCESS_COUNTS,
    DEFAULT_SETUP_TIMES,
    ProtocolCurve,
    figure8_series,
    figure9_series,
)
from repro.analysis.parameters import ModelParameters, ProtocolKind


def format_curves(
    curves: dict[ProtocolKind, ProtocolCurve],
    x_label: str,
    x_format: str = "{:>10.4g}",
) -> str:
    """Render protocol curves as an aligned ASCII table."""
    kinds = list(curves)
    x_values = curves[kinds[0]].x_values
    header = f"{x_label:>10s}" + "".join(
        f"{kind.value:>14s}" for kind in kinds
    )
    lines = [header, "-" * len(header)]
    for position, x in enumerate(x_values):
        row = x_format.format(x) + "".join(
            f"{curves[kind].ratios[position]:>14.6f}" for kind in kinds
        )
        lines.append(row)
    return "\n".join(lines)


def figure8_table(
    params: ModelParameters = ModelParameters(),
    process_counts: tuple[int, ...] = DEFAULT_PROCESS_COUNTS,
) -> str:
    """The Figure 8 data as an ASCII table."""
    curves = figure8_series(params, process_counts)
    return format_curves(curves, x_label="n")


def figure9_table(
    params: ModelParameters = ModelParameters(),
    setup_times: tuple[float, ...] = DEFAULT_SETUP_TIMES,
    n_processes: int = DEFAULT_FIGURE9_PROCESSES,
) -> str:
    """The Figure 9 data as an ASCII table."""
    curves = figure9_series(params, setup_times, n_processes)
    return format_curves(curves, x_label="w_m [s]")


def _strictly_increasing(values: tuple[float, ...]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _constant(values: tuple[float, ...], tolerance: float = 1e-12) -> bool:
    return max(values) - min(values) <= tolerance


def shape_check_figure8(
    curves: dict[ProtocolKind, ProtocolCurve],
) -> list[str]:
    """Return a list of violated Figure 8 shape claims (empty = pass)."""
    problems: list[str] = []
    appl = curves[ProtocolKind.APPLICATION_DRIVEN].ratios
    sas = curves[ProtocolKind.SYNC_AND_STOP].ratios
    cl = curves[ProtocolKind.CHANDY_LAMPORT].ratios
    for kind, ratios in ((k, c.ratios) for k, c in curves.items()):
        if not _strictly_increasing(ratios):
            problems.append(f"{kind.value}: ratio not increasing with n")
    if not all(a < s for a, s in zip(appl, sas)):
        problems.append("appl-driven not below SaS everywhere")
    if not all(s < c for s, c in zip(sas, cl)):
        problems.append("SaS not below C-L everywhere")
    appl_growth = appl[-1] - appl[0]
    cl_growth = cl[-1] - cl[0]
    if not cl_growth > appl_growth:
        problems.append("C-L does not diverge fastest")
    return problems


def shape_check_figure9(
    curves: dict[ProtocolKind, ProtocolCurve],
) -> list[str]:
    """Return a list of violated Figure 9 shape claims (empty = pass)."""
    problems: list[str] = []
    appl = curves[ProtocolKind.APPLICATION_DRIVEN].ratios
    sas = curves[ProtocolKind.SYNC_AND_STOP].ratios
    cl = curves[ProtocolKind.CHANDY_LAMPORT].ratios
    if not _constant(appl):
        problems.append("appl-driven ratio varies with w_m")
    if not _strictly_increasing(sas):
        problems.append("SaS ratio not increasing with w_m")
    if not _strictly_increasing(cl):
        problems.append("C-L ratio not increasing with w_m")
    sas_slope = sas[-1] - sas[0]
    cl_slope = cl[-1] - cl[0]
    if not cl_slope > sas_slope:
        problems.append("C-L slope does not exceed SaS slope")
    return problems
