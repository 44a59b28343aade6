"""Error-hierarchy and default-hook behaviour tests."""

import pytest

from repro import errors
from repro.runtime.hooks import NullProtocol, ProtocolHooks


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is errors.ReproError:
                    continue
                assert issubclass(obj, errors.ReproError), name

    def test_language_errors_carry_positions(self):
        error = errors.ParseError("boom", line=3, column=7)
        assert error.line == 3 and error.column == 7
        assert "line 3" in str(error)

    def test_deadlock_carries_blocked_ranks(self):
        error = errors.DeadlockError("stuck", blocked=(1, 2))
        assert error.blocked == (1, 2)

    def test_phase_errors_group(self):
        for cls in (
            errors.InsertionError,
            errors.MatchingError,
            errors.PlacementError,
            errors.VerificationError,
        ):
            assert issubclass(cls, errors.PhaseError)

    def test_simulation_errors_group(self):
        for cls in (
            errors.DeadlockError,
            errors.ChannelError,
            errors.StorageError,
            errors.RecoveryError,
        ):
            assert issubclass(cls, errors.SimulationError)


class TestDefaultHooks:
    def test_null_protocol_is_fully_inert(self):
        from repro.lang.programs import jacobi
        from repro.runtime import Simulation

        bare = Simulation(jacobi(), 4, params={"steps": 3}).run()
        with_null = Simulation(
            jacobi(), 4, params={"steps": 3}, protocol=NullProtocol()
        ).run()
        assert bare.final_env == with_null.final_env
        assert bare.completion_time == with_null.completion_time

    def test_base_hooks_are_noops(self):
        hooks = ProtocolHooks()
        # none of these should raise or require a simulation
        hooks.on_start(None)
        hooks.on_control(None, None)
        hooks.on_timer(None, 0, "t", 0.0)
        hooks.on_checkpoint(None, 0, 1)
        assert hooks.piggyback(None, 0) == {}

    def test_default_failure_hook_leaves_crash_unhandled(self):
        from repro.lang.parser import parse
        from repro.runtime import FaultPlan, Simulation

        with pytest.raises(errors.RecoveryError, match="no recovery"):
            Simulation(
                parse("program t():\n    compute(100)\n"),
                1,
                protocol=NullProtocol(),
                fault_plan=FaultPlan.single(5.0, 0),
            ).run()
