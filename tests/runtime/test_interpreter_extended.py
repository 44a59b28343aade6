"""Extended interpreter coverage: control-flow corners at runtime."""

from repro.lang.parser import parse
from repro.runtime import Simulation
from repro.runtime.interpreter import ProcessInterpreter


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


def run_single(source, rank=0, nprocs=1, params=None):
    interp = ProcessInterpreter(source, rank, nprocs, params=params)
    while True:
        effect = interp.step()
        if effect is None:
            return interp.env


class TestControlFlowCorners:
    def test_elif_chain_selects_correct_branch(self):
        source = program(
            "if myrank == 0:\n    r = 10\n"
            "elif myrank == 1:\n    r = 20\n"
            "elif myrank == 2:\n    r = 30\n"
            "else:\n    r = 40"
        )
        values = [run_single(source, rank, 5)["r"] for rank in range(5)]
        assert values == [10, 20, 30, 40, 40]

    def test_nested_while_in_for(self):
        env = run_single(
            program(
                "total = 0\n"
                "for k in range(3):\n"
                "    j = 0\n"
                "    while j < k:\n"
                "        total = total + 1\n"
                "        j = j + 1"
            )
        )
        assert env["total"] == 0 + 1 + 2

    def test_zero_trip_while(self):
        env = run_single(program("x = 5\nwhile x < 0:\n    x = 99"))
        assert env["x"] == 5

    def test_deeply_nested_ifs(self):
        env = run_single(
            program(
                "x = 0\n"
                "if True:\n"
                "    if True:\n"
                "        if True:\n"
                "            x = 7"
            )
        )
        assert env["x"] == 7

    def test_loop_variable_persists_after_for(self):
        env = run_single(program("for k in range(4):\n    pass\nz = k"))
        assert env["z"] == 3

    def test_boolean_short_circuit_avoids_division(self):
        env = run_single(
            program("d = 0\nx = d != 0 and 10 // d > 1\ny = d == 0 or 10 // d")
        )
        assert env["x"] == 0
        assert env["y"] == 1


class TestBcastCorners:
    def test_bcast_in_loop_with_changing_root_value(self):
        source = program(
            "acc = 0\n"
            "i = 0\n"
            "while i < 3:\n"
            "    v = bcast(0, i * 10)\n"
            "    acc = acc + v\n"
            "    i = i + 1"
        )
        result = Simulation(source, 3).run()
        assert all(env["acc"] == 0 + 10 + 20 for env in result.final_env.values())

    def test_bcast_root_by_expression(self):
        source = program("v = bcast(nprocs - 1, myrank + 100)")
        result = Simulation(source, 4).run()
        assert all(env["v"] == 103 for env in result.final_env.values())

    def test_single_process_bcast(self):
        env = run_single(program("v = bcast(0, 42)"))
        assert env["v"] == 42


class TestMixedWorkload:
    def test_interleaved_p2p_and_collective(self):
        source = program(
            "if myrank == 0:\n"
            "    send(1, 5)\n"
            "    base = bcast(0, 100)\n"
            "else:\n"
            "    got = recv(0)\n"
            "    base = bcast(0, 100)\n"
            "    send(0, got + base)\n"
            "if myrank == 0:\n"
            "    reply = recv(1)"
        )
        result = Simulation(source, 2).run()
        assert result.final_env[0]["reply"] == 105
