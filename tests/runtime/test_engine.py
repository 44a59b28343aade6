"""Simulation-engine tests: scheduling, time accounting, determinism,
deadlock detection, checkpointing, crash/rollback."""

import pytest

from repro.causality.records import EventKind
from repro.errors import DeadlockError, RecoveryError, SimulationError
from repro.lang.parser import parse
from repro.lang.programs import default_params, jacobi, master_worker
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FaultPlan, RuntimeCosts, Simulation


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestBasicRuns:
    def test_single_process_completes(self):
        result = Simulation(program("compute(3)"), 1).run()
        assert result.stats.completed
        assert result.completion_time > 0

    def test_two_process_exchange(self):
        source = program(
            "if myrank == 0:\n"
            "    send(1, 42)\n"
            "else:\n"
            "    y = recv(0)\n"
        )
        result = Simulation(source, 2).run()
        assert result.final_env[1]["y"] == 42
        assert result.stats.app_messages == 1

    def test_message_values_flow_correctly(self):
        source = program(
            "if myrank == 0:\n"
            "    send(1, 10)\n"
            "    y = recv(1)\n"
            "else:\n"
            "    x = recv(0)\n"
            "    send(0, x + 5)\n"
        )
        result = Simulation(source, 2).run()
        assert result.final_env[0]["y"] == 15

    def test_bcast_delivers_to_all(self):
        source = program("v = bcast(0, myrank + 100)")
        result = Simulation(source, 4).run()
        assert all(env["v"] == 100 for env in result.final_env.values())

    def test_all_programs_complete(self, any_program):
        result = Simulation(any_program, 4, params=default_params(any_program.name)).run()
        assert result.stats.completed


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        a = Simulation(jacobi(), 4, params={"steps": 4}, seed=9).run()
        b = Simulation(jacobi(), 4, params={"steps": 4}, seed=9).run()
        assert a.final_env == b.final_env
        assert [e.time for e in a.trace.events] == [
            e.time for e in b.trace.events
        ]

    def test_seed_changes_latencies_not_results(self):
        a = Simulation(jacobi(), 4, params={"steps": 4}, seed=1).run()
        b = Simulation(jacobi(), 4, params={"steps": 4}, seed=2).run()
        assert a.final_env == b.final_env
        assert a.completion_time != b.completion_time


class TestTimeAccounting:
    def test_compute_cost_charged(self):
        costs = RuntimeCosts(compute_unit=1.0, local_statement=0.0)
        result = Simulation(program("compute(7)"), 1, costs=costs).run()
        assert result.completion_time == pytest.approx(7.0)

    def test_checkpoint_overhead_charged(self):
        costs = RuntimeCosts(checkpoint_overhead=5.0, local_statement=0.0)
        result = Simulation(program("checkpoint"), 1, costs=costs).run()
        assert result.completion_time == pytest.approx(5.0)

    def test_recv_waits_for_arrival(self):
        costs = RuntimeCosts(local_statement=0.0, send_overhead=0.0,
                             recv_overhead=0.0, compute_unit=1.0)
        source = program(
            "if myrank == 0:\n"
            "    compute(10)\n"
            "    send(1, 1)\n"
            "else:\n"
            "    y = recv(0)\n"
        )
        result = Simulation(source, 2, costs=costs, base_latency=2.0).run()
        recv_event = result.trace.of_kind(EventKind.RECV)[0]
        assert recv_event.time >= 12.0

    def test_event_times_non_decreasing_per_process(self, any_program):
        result = Simulation(any_program, 4, params=default_params(any_program.name)).run()
        for rank in range(4):
            times = [e.time for e in result.trace.events_for(rank)]
            assert times == sorted(times)


class TestTraceContents:
    def test_send_recv_pair_per_message(self):
        result = Simulation(jacobi(), 4, params={"steps": 2}).run()
        sends = {e.message_id for e in result.trace.of_kind(EventKind.SEND)}
        recvs = {e.message_id for e in result.trace.of_kind(EventKind.RECV)}
        assert sends == recvs

    def test_checkpoint_events_numbered_sequentially(self):
        result = Simulation(jacobi(), 4, params={"steps": 3}).run()
        for rank, events in result.trace.checkpoint_events().items():
            numbers = [e.checkpoint_number for e in events]
            assert numbers == list(range(1, len(numbers) + 1))

    def test_checkpoint_events_carry_stmt_id(self):
        result = Simulation(jacobi(), 4, params={"steps": 2}).run()
        for events in result.trace.checkpoint_events().values():
            assert all(e.stmt_id is not None for e in events)

    def test_compute_charges_time_and_records_no_event(self):
        result = Simulation(program("compute(3)"), 1).run()
        assert result.trace.events == []
        assert result.completion_time == pytest.approx(
            3 * RuntimeCosts().compute_unit
        )


class TestDeadlockAndGuards:
    def test_mutual_wait_deadlocks(self):
        source = program("y = recv((myrank + 1) % nprocs)")
        with pytest.raises(DeadlockError) as excinfo:
            Simulation(source, 2).run()
        assert set(excinfo.value.blocked) == {0, 1}

    def test_self_deadlock_single_process(self):
        # rank 0 waits for rank 1 which finished without sending
        source = program(
            "if myrank == 0:\n    y = recv(1)\nelse:\n    compute(1)\n"
        )
        with pytest.raises(DeadlockError):
            Simulation(source, 2).run()

    def test_step_budget_guard(self):
        with pytest.raises(SimulationError, match="step budget"):
            Simulation(
                program("i = 0\nwhile i < 100000:\n    i = i + 1"),
                1,
                max_steps=100,
            ).run()

    def test_crash_without_recovery_raises(self):
        source = program("compute(100)")
        with pytest.raises(RecoveryError, match="no recovery"):
            Simulation(
                source, 1, fault_plan=FaultPlan.single(5.0, 0)
            ).run()

    def test_need_at_least_one_process(self):
        with pytest.raises(SimulationError):
            Simulation(program("pass"), 0)


class TestCrashRecovery:
    def test_crash_after_completion_ignored(self):
        result = Simulation(
            program("compute(1)"),
            1,
            fault_plan=FaultPlan.single(1000.0, 0),
        ).run()
        assert result.stats.completed
        assert result.stats.failures == 0

    def test_failure_and_restart_events_traced(self):
        result = Simulation(
            jacobi(),
            4,
            params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=FaultPlan.single(11.0, 2),
        ).run()
        assert len(result.trace.of_kind(EventKind.FAILURE)) == 1
        assert len(result.trace.of_kind(EventKind.RESTART)) == 4

    def test_storage_truncated_on_rollback(self):
        result = Simulation(
            jacobi(),
            4,
            params={"steps": 10},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=FaultPlan.single(11.0, 2),
        ).run()
        # after truncation + replay, each rank's history is 0..steps
        for rank in range(4):
            numbers = [c.number for c in result.storage.history(rank)]
            assert numbers == sorted(numbers)
            assert len(numbers) == len(set(numbers))

    def test_replay_equivalence_various_crash_times(self):
        baseline = Simulation(jacobi(), 4, params={"steps": 8}).run().final_env
        for crash_time in (3.1, 7.9, 13.4):
            result = Simulation(
                jacobi(),
                4,
                params={"steps": 8},
                protocol=ApplicationDrivenProtocol(),
                fault_plan=FaultPlan.single(crash_time, 1),
            ).run()
            assert result.final_env == baseline, crash_time

    def test_master_worker_recovery(self):
        baseline = Simulation(
            master_worker(), 4, params={"steps": 6}
        ).run().final_env
        result = Simulation(
            master_worker(),
            4,
            params={"steps": 6},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=FaultPlan.single(9.3, 0),
        ).run()
        assert result.stats.completed
        assert result.final_env == baseline
