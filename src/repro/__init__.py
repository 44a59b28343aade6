"""repro — Application-Driven Coordination-Free Distributed Checkpointing.

A full reproduction of Agbaria & Sanders (ICDCS 2005): the offline
three-phase program transformation that makes every straight cut of
checkpoints a recovery line with zero runtime coordination, plus the
substrates needed to validate it — a MiniMP language front end, CFG and
rank-attribute analyses, a discrete-event distributed simulator with
failure injection and rollback, four baseline checkpointing protocols,
and the paper's stochastic performance model.

Quickstart::

    from repro import transform, parse, Simulation
    from repro.protocols import ApplicationDrivenProtocol

    program = parse(source_text)
    result = transform(program)          # Phases I-III + verification
    sim = Simulation(result.program, n_processes=4,
                     params={"steps": 20},
                     protocol=ApplicationDrivenProtocol())
    run = sim.run()
    assert run.trace.all_straight_cuts_consistent()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "repro.analysis": (
        "ModelParameters",
        "ProtocolKind",
        "figure8_series",
        "figure9_series",
        "gamma_closed_form",
        "overhead_ratio",
    ),
    "repro.cfg": ("build_cfg",),
    "repro.lang": ("parse", "to_source"),
    "repro.lang.programs": ("load_program", "program_names"),
    "repro.phases": (
        "TransformResult",
        "build_extended_cfg",
        "check_condition1",
        "ensure_recovery_lines",
        "insert_checkpoints",
        "transform",
        "verify_program",
    ),
    "repro.runtime": ("FaultPlan", "RuntimeCosts", "Simulation"),
}

__version__ = "1.0.0"

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__ += ["__version__"]

__getattr__ = lazy_exports(globals(), _EXPORTS)
