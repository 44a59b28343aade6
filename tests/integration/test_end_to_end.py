"""Whole-library end-to-end flows, exercising the public API only."""

import pytest

import repro
from repro.protocols import ApplicationDrivenProtocol


QUICKSTART_SOURCE = """\
program quickstart():
    x = init(myrank)
    i = 0
    while i < steps:
        if myrank % 2 == 0:
            send(myrank + 1, x)
            y = recv(myrank + 1)
            checkpoint
        else:
            y = recv(myrank - 1)
            send(myrank - 1, x)
            checkpoint
        x = combine(x, y)
        i = i + 1
"""


class TestPublicApiFlow:
    def test_parse_transform_simulate_recover(self):
        program = repro.parse(QUICKSTART_SOURCE)
        assert not repro.verify_program(program).ok

        result = repro.transform(program)
        assert repro.verify_program(result.program).ok

        baseline = repro.Simulation(
            result.program, 4, params={"steps": 6}
        ).run()
        crashed = repro.Simulation(
            result.program,
            4,
            params={"steps": 6},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=repro.FaultPlan.single(7.7, 1),
        ).run()
        assert crashed.stats.completed
        assert crashed.stats.control_messages == 0
        assert crashed.final_env == baseline.final_env

    def test_roundtrip_source(self):
        program = repro.parse(QUICKSTART_SOURCE)
        result = repro.transform(program)
        text = repro.to_source(result.program)
        reparsed = repro.parse(text)
        assert repro.verify_program(reparsed).ok

    def test_program_registry_exposed(self):
        assert "jacobi" in repro.program_names()
        program = repro.load_program("jacobi")
        assert repro.verify_program(program).ok

    def test_analysis_entry_points(self):
        curves = repro.figure8_series()
        assert repro.ProtocolKind.APPLICATION_DRIVEN in curves
        ratio = repro.overhead_ratio(1e-4, 300.0, 1.78, 3.32, 4.292)
        gamma = repro.gamma_closed_form(1e-4, 300.0, 1.78, 3.32, 4.292)
        assert ratio == pytest.approx(gamma / 300.0 - 1.0)

    def test_version_exported(self):
        assert repro.__version__


class TestInsertionToRecoveryPipeline:
    def test_uncheckpointed_program_full_pipeline(self):
        """Phase I inserts, Phase II/III verify, simulator validates,
        recovery works — all from a checkpoint-free source."""
        from repro.phases.insertion import CostModel

        program = repro.load_program("jacobi_plain")
        result = repro.transform(
            program,
            cost_model=CostModel(
                checkpoint_overhead=2.0,
                failure_rate=0.05,
                params={"steps": 10},
            ),
        )
        assert result.insertion is not None
        assert result.insertion.inserted >= 1

        run = repro.Simulation(
            result.program,
            4,
            params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=repro.FaultPlan.single(13.9, 3),
        ).run()
        assert run.stats.completed
        assert run.trace.all_straight_cuts_consistent()
