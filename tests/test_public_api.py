"""Public-API stability: the names downstream users rely on.

A snapshot of the top-level surface: adding names is fine (extend the
sets), but removing or renaming any of these is a breaking change that
this test makes deliberate.
"""

import importlib
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.protocols

TOP_LEVEL = {
    "FaultPlan",
    "ModelParameters",
    "ProtocolKind",
    "RuntimeCosts",
    "Simulation",
    "TransformResult",
    "build_cfg",
    "build_extended_cfg",
    "check_condition1",
    "ensure_recovery_lines",
    "figure8_series",
    "figure9_series",
    "gamma_closed_form",
    "insert_checkpoints",
    "load_program",
    "overhead_ratio",
    "parse",
    "program_names",
    "to_source",
    "transform",
    "verify_program",
}

PROTOCOLS = {
    "ApplicationDrivenProtocol",
    "ChandyLamportProtocol",
    "CheckpointingProtocol",
    "InducedProtocol",
    "MessageLoggingProtocol",
    "SyncAndStopProtocol",
    "UncoordinatedProtocol",
}

ANALYSIS = {
    "IntervalMarkovChain",
    "ModelParameters",
    "ProtocolKind",
    "STARFISH_DEFAULTS",
    "break_even_work",
    "daly_interval",
    "figure8_series",
    "figure9_series",
    "gamma_closed_form",
    "optimal_interval_exact",
    "overhead_ratio",
    "sensitivity_sweep",
    "simulate_interval_time",
    "system_failure_rate",
    "young_interval",
}


def test_top_level_surface_complete():
    missing = TOP_LEVEL - set(repro.__all__)
    assert not missing, f"missing from repro.__all__: {sorted(missing)}"
    for name in TOP_LEVEL:
        assert hasattr(repro, name), name


def test_protocol_surface_complete():
    missing = PROTOCOLS - set(repro.protocols.__all__)
    assert not missing
    for name in PROTOCOLS:
        assert hasattr(repro.protocols, name), name


def test_analysis_surface_complete():
    missing = ANALYSIS - set(repro.analysis.__all__)
    assert not missing, sorted(missing)
    for name in ANALYSIS:
        assert hasattr(repro.analysis, name), name


#: Every package under ``src/repro`` that declares ``__all__``.
EXPORTING = sorted(
    "repro" + "".join(f".{part}" for part in path.parent.relative_to(
        Path(repro.__file__).parent
    ).parts)
    for path in Path(repro.__file__).parent.rglob("__init__.py")
    if "__all__" in path.read_text()
)


@pytest.mark.parametrize("package", EXPORTING)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
