"""Engine protocol-service tests: pause/resume, timers, control
messages, protocol checkpoints, and the log-replay machinery."""

import pytest

from repro.errors import SimulationError
from repro.lang.parser import parse
from repro.runtime import RuntimeCosts, Simulation
from repro.runtime.hooks import ProtocolHooks


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class _Recorder(ProtocolHooks):
    """Hook recorder used by the service tests."""

    name = "recorder"

    def __init__(self, script=None):
        self.timer_fires = []
        self.controls = []
        self.checkpoints = []
        self.script = script or (lambda sim, tag, time: None)

    def on_start(self, sim):
        sim.schedule_timer(0, 1.0, "first")
        sim.schedule_timer(0, 2.0, "second")

    def on_timer(self, sim, rank, tag, time):
        self.timer_fires.append((tag, time))
        self.script(sim, tag, time)

    def on_control(self, sim, message):
        self.controls.append(message)

    def on_checkpoint(self, sim, rank, number):
        self.checkpoints.append((rank, number))


class TestTimers:
    def test_timers_fire_in_order(self):
        recorder = _Recorder()
        Simulation(
            program("compute(30)"), 1, protocol=recorder
        ).run()
        assert [t for t, _ in recorder.timer_fires] == ["first", "second"]
        assert recorder.timer_fires[0][1] == pytest.approx(1.0)

    def test_timers_after_completion_dropped(self):
        recorder = _Recorder()

        def reschedule(sim, tag, time):
            sim.schedule_timer(0, time + 1.0, "again")

        recorder.script = reschedule
        result = Simulation(
            program("compute(1)"), 1, protocol=recorder
        ).run()
        assert result.stats.completed


class TestControlMessages:
    def test_control_delivered_with_latency(self):
        class Sender(_Recorder):
            def on_timer(self, sim, rank, tag, time):
                super().on_timer(sim, rank, tag, time)
                if tag == "first":
                    sim.send_control(0, 1, "hello", {"k": 7}, time)

        recorder = Sender()
        costs = RuntimeCosts(control_latency=0.25)
        result = Simulation(
            program("compute(30)"), 2, protocol=recorder, costs=costs
        ).run()
        assert len(recorder.controls) == 1
        message = recorder.controls[0]
        assert message.arrival_time == pytest.approx(1.25)
        assert message.data == {"k": 7}
        assert result.stats.control_messages == 1


class TestPauseResume:
    def test_pause_blocks_progress_until_resume(self):
        class Pauser(_Recorder):
            def on_timer(self, sim, rank, tag, time):
                super().on_timer(sim, rank, tag, time)
                if tag == "first":
                    sim.pause(0)
                    sim.schedule_timer(0, 20.0, "release")
                elif tag == "release":
                    sim.resume(0, time)

        recorder = Pauser()
        result = Simulation(
            program("compute(30)"), 1, protocol=recorder
        ).run()
        # the process lost ~19 units to the pause
        assert result.completion_time >= 20.0

    def test_resume_does_not_rewind_clock(self):
        class Pauser(_Recorder):
            def on_timer(self, sim, rank, tag, time):
                super().on_timer(sim, rank, tag, time)
                if tag == "first":
                    sim.resume(0, 0.1)  # resume time in the past: no-op

        result = Simulation(
            program("compute(5)"), 1, protocol=Pauser()
        ).run()
        assert result.completion_time == pytest.approx(1.0, abs=0.2)


class TestProtocolCheckpoints:
    def test_take_checkpoint_counts_and_notifies(self):
        class Snapper(_Recorder):
            def on_timer(self, sim, rank, tag, time):
                super().on_timer(sim, rank, tag, time)
                if tag == "first":
                    sim.take_checkpoint(0, time, tag="proto", forced=True)

        recorder = Snapper()
        result = Simulation(
            program("compute(10)"), 1, protocol=recorder
        ).run()
        assert result.stats.checkpoints == 1
        assert result.stats.forced_checkpoints == 1
        assert recorder.checkpoints == [(0, 1)]
        stored = result.storage.history(0)[-1]
        assert stored.tag == "proto"

    def test_checkpoint_on_done_process_rejected(self):
        sim = Simulation(program("compute(1)"), 1)
        sim.run()
        with pytest.raises(SimulationError, match="cannot checkpoint"):
            sim.take_checkpoint(0, 10.0, tag="late")


class TestReplayDeterminismGuard:
    def test_non_deterministic_replay_detected(self):
        """The duplicate-suppression path asserts replayed payloads
        match the log; a mismatch raises."""
        from repro.errors import ChannelError
        from repro.runtime.network import Network

        network = Network(2)
        network.send(0, 1, 10, send_time=0.0)
        network.send(0, 1, 20, send_time=0.1)
        network.replay_for_rank(
            0, {(0, 1, "p2p"): (0, 0)}, restart_time=5.0
        )
        network.send(0, 1, 10, send_time=5.1)  # matches log[0]
        with pytest.raises(ChannelError, match="non-deterministic"):
            network.send(0, 1, 99, send_time=5.2)  # log[1] was 20

    def test_replay_cursor_clears_after_catchup(self):
        from repro.runtime.network import Network

        network = Network(2)
        network.send(0, 1, 1, send_time=0.0)
        network.replay_for_rank(0, {(0, 1, "p2p"): (0, 0)}, restart_time=2.0)
        replayed = network.send(0, 1, 1, send_time=2.1)
        assert replayed.message_id == 1  # the original, not a new message
        fresh = network.send(0, 1, 2, send_time=2.2)
        assert fresh.message_id != 1
