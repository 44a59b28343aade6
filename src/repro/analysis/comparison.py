"""Protocol comparison sweeps — the data behind Figures 8 and 9.

Figure 8 plots the overhead ratio against the number of processes for
the application-driven approach, SaS, and C-L; Figure 9 fixes the
system size and sweeps the message setup time ``w_m``. Both are pure
functions of :class:`~repro.analysis.parameters.ModelParameters`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.message_overhead import (
    total_checkpoint_overhead,
    total_latency_overhead,
)
from repro.analysis.overhead import overhead_ratio
from repro.analysis.parameters import (
    ModelParameters,
    ProtocolKind,
    system_failure_rate,
)

DEFAULT_PROCESS_COUNTS = (16, 32, 64, 128, 256, 384, 512)
DEFAULT_SETUP_TIMES = (0.0, 0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)
DEFAULT_FIGURE9_PROCESSES = 128


@dataclass(frozen=True)
class ProtocolCurve:
    """One protocol's series over a swept parameter."""

    kind: ProtocolKind
    x_values: tuple[float, ...]
    ratios: tuple[float, ...]


def overhead_ratio_for_protocol(
    params: ModelParameters, kind: ProtocolKind, n_processes: int
) -> float:
    """The overhead ratio ``r`` of *kind* on an *n*-process system."""
    return overhead_ratio(
        failure_rate=system_failure_rate(params, n_processes),
        interval=params.interval,
        total_overhead=total_checkpoint_overhead(params, kind, n_processes),
        recovery=params.recovery_overhead,
        total_latency=total_latency_overhead(params, kind, n_processes),
    )


def figure8_series(
    params: ModelParameters = ModelParameters(),
    process_counts: tuple[int, ...] = DEFAULT_PROCESS_COUNTS,
) -> dict[ProtocolKind, ProtocolCurve]:
    """Overhead ratio vs. number of processes, per protocol (Figure 8)."""
    curves: dict[ProtocolKind, ProtocolCurve] = {}
    for kind in ProtocolKind:
        ratios = tuple(
            overhead_ratio_for_protocol(params, kind, n) for n in process_counts
        )
        curves[kind] = ProtocolCurve(
            kind=kind,
            x_values=tuple(float(n) for n in process_counts),
            ratios=ratios,
        )
    return curves


def figure9_series(
    params: ModelParameters = ModelParameters(),
    setup_times: tuple[float, ...] = DEFAULT_SETUP_TIMES,
    n_processes: int = DEFAULT_FIGURE9_PROCESSES,
) -> dict[ProtocolKind, ProtocolCurve]:
    """Overhead ratio vs. message setup time ``w_m`` (Figure 9)."""
    curves: dict[ProtocolKind, ProtocolCurve] = {}
    for kind in ProtocolKind:
        ratios = tuple(
            overhead_ratio_for_protocol(
                params.with_(message_setup=w_m), kind, n_processes
            )
            for w_m in setup_times
        )
        curves[kind] = ProtocolCurve(
            kind=kind, x_values=tuple(setup_times), ratios=ratios
        )
    return curves


DEFAULT_FAILURE_PROBS = (1e-7, 1e-6, 1e-5, 1e-4, 5e-4)


def failure_probability_series(
    params: ModelParameters = ModelParameters(),
    probabilities: tuple[float, ...] = DEFAULT_FAILURE_PROBS,
    n_processes: int = DEFAULT_FIGURE9_PROCESSES,
) -> dict[ProtocolKind, ProtocolCurve]:
    """Overhead ratio vs. per-process failure probability.

    An extra sweep beyond the paper's figures, isolating the mechanism
    behind Figure 8 (the paper's ratio grows with n *because* lambda
    grows with n): all protocols degrade as ``p`` rises, and the
    ordering appl-driven < SaS < C-L is preserved throughout.
    """
    curves: dict[ProtocolKind, ProtocolCurve] = {}
    for kind in ProtocolKind:
        ratios = tuple(
            overhead_ratio_for_protocol(
                params.with_(process_failure_prob=p), kind, n_processes
            )
            for p in probabilities
        )
        curves[kind] = ProtocolCurve(
            kind=kind, x_values=tuple(probabilities), ratios=ratios
        )
    return curves
