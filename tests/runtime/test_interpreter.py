"""Interpreter tests: execution, effects, snapshot/restore."""

import pytest

from repro.errors import SimulationError
from repro.lang.parser import parse
from repro.runtime.effects import (
    BcastRecvEffect,
    BcastSendEffect,
    CheckpointEffect,
    ComputeEffect,
    LocalEffect,
    RecvEffect,
    SendEffect,
)
from repro.runtime.interpreter import ProcessInterpreter


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


def run_to_completion(interp, deliveries=()):
    """Drive an interpreter, answering receives from *deliveries*."""
    effects = []
    queue = list(deliveries)
    while True:
        effect = interp.step()
        if effect is None:
            return effects
        effects.append(effect)
        if isinstance(effect, (RecvEffect, BcastRecvEffect)):
            interp.deliver(queue.pop(0))


class TestBasicExecution:
    def test_assignment_updates_env(self):
        interp = ProcessInterpreter(program("x = 2 + 3"), 0, 2)
        run_to_completion(interp)
        assert interp.env["x"] == 5

    def test_myrank_nprocs_visible(self):
        interp = ProcessInterpreter(program("x = myrank * 10 + nprocs"), 3, 8)
        run_to_completion(interp)
        assert interp.env["x"] == 38

    def test_params_preloaded(self):
        interp = ProcessInterpreter(
            program("x = steps + 1"), 0, 2, params={"steps": 9}
        )
        run_to_completion(interp)
        assert interp.env["x"] == 10

    def test_if_branches_on_rank(self):
        source = program("if myrank == 0:\n    x = 1\nelse:\n    x = 2")
        even = ProcessInterpreter(source, 0, 2)
        odd = ProcessInterpreter(source, 1, 2)
        run_to_completion(even)
        run_to_completion(odd)
        assert even.env["x"] == 1
        assert odd.env["x"] == 2

    def test_while_loop_runs_to_bound(self):
        interp = ProcessInterpreter(
            program("i = 0\nwhile i < 5:\n    i = i + 1"), 0, 2
        )
        run_to_completion(interp)
        assert interp.env["i"] == 5

    def test_for_loop_binds_counter(self):
        interp = ProcessInterpreter(
            program("total = 0\nfor k in range(4):\n    total = total + k"), 0, 2
        )
        run_to_completion(interp)
        assert interp.env["total"] == 6

    def test_negative_for_count_skips(self):
        interp = ProcessInterpreter(
            program("x = 0\nfor k in range(0 - 3):\n    x = 1"), 0, 2
        )
        run_to_completion(interp)
        assert interp.env["x"] == 0

    def test_finished_flag(self):
        interp = ProcessInterpreter(program("pass"), 0, 1)
        assert not interp.finished
        run_to_completion(interp)
        assert interp.finished


class TestEffects:
    def test_effect_sequence(self):
        source = program("x = 1\ncompute(3)\nsend(1, x)\ncheckpoint")
        effects = run_to_completion(ProcessInterpreter(source, 0, 2))
        assert isinstance(effects[0], LocalEffect)
        assert isinstance(effects[1], ComputeEffect)
        assert effects[1].cost == 3.0
        assert isinstance(effects[2], SendEffect)
        assert effects[2].dest == 1
        assert isinstance(effects[3], CheckpointEffect)

    def test_recv_blocks_until_delivery(self):
        interp = ProcessInterpreter(program("y = recv(1)\nz = y + 1"), 0, 2)
        effect = interp.step()
        assert isinstance(effect, RecvEffect)
        assert interp.snapshot().pending_recv == "y"
        with pytest.raises(SimulationError, match="awaiting"):
            interp.step()
        interp.deliver(41)
        run_to_completion(interp)
        assert interp.env["z"] == 42

    def test_deliver_without_pending_raises(self):
        interp = ProcessInterpreter(program("pass"), 0, 1)
        with pytest.raises(SimulationError, match="pending"):
            interp.deliver(1)

    def test_bcast_root_side(self):
        interp = ProcessInterpreter(program("v = bcast(0, 7)"), 0, 3)
        effects = run_to_completion(interp)
        assert isinstance(effects[0], BcastSendEffect)
        assert interp.env["v"] == 7

    def test_bcast_receiver_side(self):
        interp = ProcessInterpreter(program("v = bcast(0, 7)"), 2, 3)
        effect = interp.step()
        assert isinstance(effect, BcastRecvEffect)
        interp.deliver(7)
        run_to_completion(interp)
        assert interp.env["v"] == 7

    def test_checkpoint_count_increments(self):
        interp = ProcessInterpreter(
            program("checkpoint\ncheckpoint"), 0, 1
        )
        run_to_completion(interp)
        assert interp.checkpoint_count == 2


class TestRuntimeErrors:
    def test_unbound_variable(self):
        interp = ProcessInterpreter(program("x = ghost"), 0, 1)
        with pytest.raises(SimulationError, match="unbound variable 'ghost'"):
            run_to_completion(interp)

    def test_out_of_range_endpoint(self):
        interp = ProcessInterpreter(program("send(9, 1)"), 0, 2)
        with pytest.raises(SimulationError, match="out of range"):
            run_to_completion(interp)

    def test_division_by_zero(self):
        interp = ProcessInterpreter(program("x = 1 // 0"), 0, 1)
        with pytest.raises(SimulationError, match="division by zero"):
            run_to_completion(interp)

    def test_modulo_by_zero(self):
        interp = ProcessInterpreter(program("x = 1 % 0"), 0, 1)
        with pytest.raises(SimulationError, match="modulo by zero"):
            run_to_completion(interp)

    def test_bad_rank_constructor(self):
        with pytest.raises(SimulationError, match="out of range"):
            ProcessInterpreter(program("pass"), 5, 2)


class TestSnapshotRestore:
    def test_snapshot_restores_env_and_position(self):
        source = program("x = 1\ncheckpoint\nx = x + 10\nx = x + 100")
        interp = ProcessInterpreter(source, 0, 1)
        snap = None
        while True:
            effect = interp.step()
            if effect is None:
                break
            if isinstance(effect, CheckpointEffect):
                snap = interp.snapshot()
        assert interp.env["x"] == 111
        interp.restore(snap)
        assert interp.env["x"] == 1
        run_to_completion(interp)
        assert interp.env["x"] == 111

    def test_restore_replays_loop_iterations(self):
        source = program(
            "acc = 0\ni = 0\nwhile i < 4:\n    checkpoint\n    acc = acc + i\n    i = i + 1"
        )
        interp = ProcessInterpreter(source, 0, 1)
        snapshots = []
        while True:
            effect = interp.step()
            if effect is None:
                break
            if isinstance(effect, CheckpointEffect):
                snapshots.append(interp.snapshot())
        final = dict(interp.env)
        interp.restore(snapshots[1])  # start of iteration 2 (i == 1)
        assert interp.env["i"] == 1
        run_to_completion(interp)
        assert interp.env == final

    def test_snapshot_while_blocked(self):
        interp = ProcessInterpreter(program("y = recv(1)\nz = y * 2"), 0, 2)
        interp.step()
        snap = interp.snapshot()
        assert snap.pending_recv == "y"
        interp.deliver(5)
        run_to_completion(interp)
        assert interp.env["z"] == 10
        interp.restore(snap)
        assert interp.snapshot().pending_recv == "y"
        interp.deliver(8)
        run_to_completion(interp)
        assert interp.env["z"] == 16

    def test_snapshot_does_not_alias_live_state(self):
        interp = ProcessInterpreter(program("x = 1\nx = 2"), 0, 1)
        interp.step()
        snap = interp.snapshot()
        interp.step()
        assert snap.env["x"] == 1

    def test_checkpoint_count_preserved_across_restore(self):
        source = program("checkpoint\ncheckpoint\ncompute(1)")
        interp = ProcessInterpreter(source, 0, 1)
        snap = None
        while True:
            effect = interp.step()
            if effect is None:
                break
            if isinstance(effect, CheckpointEffect) and snap is None:
                snap = interp.snapshot()
        interp.restore(snap)
        assert interp.checkpoint_count == 1
        run_to_completion(interp)
        assert interp.checkpoint_count == 2

    def test_determinism_same_seed_inputs(self):
        source = program("x = input(noise)\ny = input(noise)")
        a = ProcessInterpreter(source, 0, 1)
        b = ProcessInterpreter(source, 0, 1)
        run_to_completion(a)
        run_to_completion(b)
        assert a.env == b.env
        assert a.env["x"] != a.env["y"]  # stream advances

    def test_input_counters_restored(self):
        source = program("x = input(noise)\ncheckpoint\ny = input(noise)")
        interp = ProcessInterpreter(source, 0, 1)
        snap = None
        while True:
            effect = interp.step()
            if effect is None:
                break
            if isinstance(effect, CheckpointEffect):
                snap = interp.snapshot()
        first_y = interp.env["y"]
        interp.restore(snap)
        run_to_completion(interp)
        assert interp.env["y"] == first_y
