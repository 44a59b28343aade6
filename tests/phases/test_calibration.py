"""Profiling-based cost-model calibration tests."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.programs import jacobi_plain
from repro.phases.calibration import calibrate_cost_model
from repro.phases.insertion import CostModel
from repro.phases.pipeline import transform
from repro.runtime import Simulation


class TestCalibration:
    def test_delay_comes_from_profile(self):
        report = calibrate_cost_model(
            jacobi_plain(), 4, params={"steps": 20}, profile_steps=3
        )
        assert report.messages_observed > 0
        assert report.cost_model.message_delay == pytest.approx(
            report.estimator.estimate
        )

    def test_profile_uses_few_steps(self):
        report = calibrate_cost_model(
            jacobi_plain(), 4, params={"steps": 1000}, profile_steps=2
        )
        # 2 iterations of 4 processes: far fewer messages than 1000 would yield
        assert report.messages_observed <= 16

    def test_other_model_knobs_preserved(self):
        base = CostModel(checkpoint_overhead=7.0, failure_rate=0.003)
        report = calibrate_cost_model(
            jacobi_plain(), 4, params={"steps": 20}, base_model=base
        )
        assert report.cost_model.checkpoint_overhead == 7.0
        assert report.cost_model.failure_rate == 0.003

    def test_message_free_program_keeps_prior(self):
        program = parse(
            "program local():\n    compute(5)\n    compute(5)\n"
        )
        base = CostModel(message_delay=9.9)
        report = calibrate_cost_model(program, 2, base_model=base)
        assert report.messages_observed == 0
        assert report.cost_model.message_delay == 9.9

    def test_calibrated_delay_tracks_network(self):
        from repro.runtime import RuntimeCosts

        slow = calibrate_cost_model(
            jacobi_plain(), 4, params={"steps": 20},
            costs=RuntimeCosts(), profile_steps=4,
        )
        # same model, but profile on a slower network via engine seed /
        # latency comes through Simulation's default; emulate by feeding
        # a direct comparison through base_latency in Simulation:
        fast_run = Simulation(
            jacobi_plain(), 4, params={"steps": 4}, base_latency=0.05
        ).run()
        from repro.analysis.delay import estimate_message_delay

        fast = estimate_message_delay(fast_run.trace.events)
        assert slow.estimator.estimate > fast.estimate


class TestCalibratedTransform:
    def test_end_to_end(self):
        report = calibrate_cost_model(
            jacobi_plain(),
            4,
            params={"steps": 10},
            base_model=CostModel(checkpoint_overhead=2.0, failure_rate=0.05,
                                 params={"steps": 10}),
        )
        assert report.cost_model.interval() > 0
        result = transform(jacobi_plain(), cost_model=report.cost_model)
        assert result.insertion is not None
        assert ast.count_statements(result.program, ast.Checkpoint) >= 1
        run = Simulation(result.program, 4, params={"steps": 6}).run()
        assert run.trace.all_straight_cuts_consistent()
