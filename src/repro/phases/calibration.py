"""Phase I calibration: derive a cost model from a profiling run.

The paper's Phase I needs two application-specific inputs before it can
place checkpoints at optimal intervals: the expected running time of
code regions and the network message delay. This module obtains both
the way a practitioner would — by profiling a short run — closing the
loop between the simulator and the offline analysis:

1. simulate a few iterations of the (uncheckpointed) program;
2. estimate the per-message delay with the Jacobson/Karn estimator the
   paper cites; and
3. return a :class:`~repro.phases.insertion.CostModel` carrying the
   calibrated delay, ready for :func:`insert_checkpoints`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.delay import RttEstimator, estimate_message_delay
from repro.lang import ast_nodes as ast
from repro.phases.insertion import CostModel
from repro.runtime.config import RuntimeCosts
from repro.runtime.engine import Simulation


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of a profiling run."""

    cost_model: CostModel
    estimator: RttEstimator
    profile_time: float
    messages_observed: int


def calibrate_cost_model(
    program: ast.Program,
    n_processes: int,
    params: dict[str, int] | None = None,
    base_model: CostModel = CostModel(),
    costs: RuntimeCosts = RuntimeCosts(),
    profile_steps: int = 3,
    seed: int = 0,
) -> CalibrationReport:
    """Profile *program* and return a delay-calibrated cost model.

    ``profile_steps`` overrides the program's ``steps`` parameter for
    the profiling run so calibration stays cheap regardless of the
    production iteration count. The returned model keeps every other
    knob from *base_model*.
    """
    profile_params = dict(params or {})
    if "steps" in profile_params or _uses_steps(program):
        profile_params["steps"] = profile_steps
    result = Simulation(
        program,
        n_processes,
        params=profile_params,
        costs=costs,
        seed=seed,
    ).run()
    estimator = estimate_message_delay(result.trace.events)
    if estimator.samples == 0:
        # No messages observed: keep the prior delay.
        calibrated = base_model
    else:
        calibrated = replace(base_model, message_delay=estimator.estimate)
    return CalibrationReport(
        cost_model=calibrated,
        estimator=estimator,
        profile_time=result.completion_time,
        messages_observed=estimator.samples,
    )


def _uses_steps(program: ast.Program) -> bool:
    return any(
        isinstance(node, ast.Name) and node.ident == "steps"
        for node in ast.walk(program)
    )
