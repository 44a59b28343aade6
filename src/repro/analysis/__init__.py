"""Stochastic performance analysis (paper Section 4).

Implements the 3-state Markov chain of Figure 7, the closed-form
expected interval time ``Γ`` and overhead ratio ``r``, the per-protocol
message-overhead models ``M(SaS)`` and ``M(C-L)``, the comparison
sweeps behind Figures 8 and 9, optimal-checkpoint-interval theory, and
Monte Carlo cross-validation of the closed forms.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.availability": (
        "break_even_work",
        "expected_completion_with_checkpointing",
        "expected_completion_without_checkpointing",
    ),
    "repro.analysis.comparison": (
        "ProtocolCurve",
        "figure8_series",
        "figure9_series",
        "overhead_ratio_for_protocol",
    ),
    "repro.analysis.delay": ("RttEstimator", "estimate_message_delay"),
    "repro.analysis.markov": ("IntervalMarkovChain", "expected_interval_time"),
    "repro.analysis.message_overhead": (
        "coordination_message_count",
        "message_overhead",
    ),
    "repro.analysis.montecarlo": ("simulate_interval_time",),
    "repro.analysis.optimal_interval": (
        "daly_interval",
        "optimal_interval_exact",
        "young_interval",
    ),
    "repro.analysis.overhead": ("gamma_closed_form", "overhead_ratio"),
    "repro.analysis.parameters": (
        "ModelParameters",
        "ProtocolKind",
        "STARFISH_DEFAULTS",
        "system_failure_rate",
    ),
    "repro.analysis.sensitivity": (
        "OptimalPoint",
        "optimal_comparison",
        "optimal_interval_for_protocol",
        "sensitivity_sweep",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = lazy_exports(globals(), _EXPORTS)
