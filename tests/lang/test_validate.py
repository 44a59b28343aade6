"""Static-validator tests."""

import pytest

from repro.lang.parser import parse
from repro.lang.programs import load_program, program_names
from repro.lang.validate import validate_program

from ..cfg.branchy import widened
from ..shipped_params import default_params


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


def messages(diagnostics):
    return [d.message for d in diagnostics]


class TestBindings:
    def test_clean_program(self):
        assert validate_program(program("x = 1\ny = x + 1")) == []

    def test_use_before_assignment(self):
        diagnostics = validate_program(program("y = x + 1"))
        assert any("'x'" in m for m in messages(diagnostics))

    def test_parameters_are_prebound(self):
        source = program("i = 0\nwhile i < steps:\n    i = i + 1")
        assert validate_program(source) == []
        diagnostics = validate_program(source, params=())
        assert any("'steps'" in m for m in messages(diagnostics))

    def test_branch_join_requires_both_arms(self):
        source = program(
            "if myrank == 0:\n    x = 1\nelse:\n    y = 2\nz = x"
        )
        diagnostics = validate_program(source)
        assert any("'x'" in m for m in messages(diagnostics))

    def test_both_arms_binding_is_clean(self):
        source = program(
            "if myrank == 0:\n    x = 1\nelse:\n    x = 2\nz = x"
        )
        assert validate_program(source) == []

    def test_recv_and_bcast_bind(self):
        source = program(
            "if myrank == 0:\n    send(1, 5)\n    v = bcast(0, 1)\n"
            "else:\n    y = recv(0)\n    v = bcast(0, 1)\n"
            "z = v"
        )
        assert validate_program(source) == []

    def test_for_variable_bound_in_body(self):
        source = program("t = 0\nfor k in range(3):\n    t = t + k")
        assert validate_program(source) == []

    def test_diagnostic_has_line(self):
        diagnostics = validate_program(program("y = ghost"))
        assert diagnostics[0].line == 2
        assert "error" in str(diagnostics[0])


class TestEndpoints:
    def test_always_out_of_range_destination(self):
        diagnostics = validate_program(program("send(nprocs, 1)"))
        assert any("out of range" in m for m in messages(diagnostics))

    def test_negative_constant_source(self):
        diagnostics = validate_program(program("y = recv(0 - 5)"))
        assert any("out of range" in m for m in messages(diagnostics))

    def test_sometimes_valid_endpoint_not_flagged(self):
        # myrank + 1 is invalid only for the last rank; not "always"
        assert validate_program(program("send(myrank + 1, 1)")) == []

    def test_unknown_endpoint_not_flagged(self):
        assert validate_program(
            program("send(input(t) % nprocs, 1)")
        ) == []

    def test_self_send_flagged(self):
        diagnostics = validate_program(program("send(myrank, 1)"))
        assert any("sender itself" in m for m in messages(diagnostics))

    def test_bcast_root_checked(self):
        diagnostics = validate_program(program("v = bcast(nprocs + 3, 1)"))
        assert any("broadcast root" in m for m in messages(diagnostics))


class TestBalanceWarning:
    def test_unbalanced_checkpoints_warn(self):
        source = program(
            "if myrank == 0:\n    checkpoint\nelse:\n    pass"
        )
        diagnostics = validate_program(source)
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert warnings and "checkpoint counts differ" in warnings[0].message

    def test_balanced_program_no_warning(self):
        assert validate_program(load_program("jacobi")) == []

    def test_wide_unbalanced_program_warns_with_its_counts(self):
        source = widened(
            program(
                "x = init(myrank)\n"
                "if x % 3 == 0:\n    checkpoint\n    checkpoint\n"
                "else:\n    x = x + 2\ncheckpoint"
            ),
            17,
        )
        assert messages(validate_program(source)) == [
            "checkpoint counts differ across paths [1, 3]; straight cuts "
            "are undefined until Phase I/III balance them"
        ]


class TestShippedPrograms:
    @pytest.mark.parametrize("name", program_names())
    def test_all_shipped_programs_validate_clean(self, name):
        params = tuple(default_params(name))
        assert validate_program(load_program(name), params=params) == []
