"""Differential tests: bitset Condition 1 vs the enumerating checker.

:func:`~repro.phases.verification.check_condition1` decides Condition 1
with a reverse-postorder bitmask DP plus an SCC transitive closure;
:func:`.enumerating_checker.check_condition1_enumerated` is the
original path-enumerating procedure it replaced. The two must agree —
verdict, balance, reason string, and the exact violation list — on
every program, including the branchy ones where enumeration is
exponential and the unbalanced ones where straight cuts are undefined.
"""

import pytest

from repro.lang.parser import parse
from repro.lang.programs import load_program, program_names
from repro.phases.matching import build_extended_cfg
from repro.phases.verification import check_condition1

from ..cfg.branchy import branchy_program
from .enumerating_checker import check_condition1_enumerated


def verdict(result):
    return (
        result.ok,
        result.balanced,
        result.reason,
        tuple(
            (v.index, v.src, v.dst, v.path, v.uses_back_edge)
            for v in result.violations
        ),
    )


def assert_agree(program):
    ext = build_extended_cfg(program)
    for include_back in (True, False):
        for first_only in (False, True):
            fast = check_condition1(ext, include_back, first_only)
            slow = check_condition1_enumerated(ext, include_back, first_only)
            assert verdict(fast) == verdict(slow)
            assert fast.indexing == slow.indexing


class TestShippedPrograms:
    @pytest.mark.parametrize("name", program_names())
    def test_agree(self, name):
        assert_agree(load_program(name))


class TestBranchyPrograms:
    """Exponential-path inputs the bitset DP must decide exactly."""

    @pytest.mark.parametrize("branches", (1, 4, 8, 10))
    def test_balanced_diamonds_agree(self, branches):
        assert_agree(branchy_program(branches))

    def test_violating_diamonds_agree(self):
        # A checkpoint after the diamonds joins every path: same-index
        # members become connected and both checkers must report the
        # identical violation set.
        lines = ["program violating():", "    x = init(myrank)"]
        for index in range(4):
            lines += [
                f"    if x % 2 == {index % 2}:",
                "        checkpoint",
                "        x = x + 1",
                "    else:",
                "        checkpoint",
                "        x = x + 2",
            ]
        lines += ["    send(myrank, x)", "    y = recv(myrank)"]
        assert_agree(parse("\n".join(lines) + "\n"))

    def test_unbalanced_agree(self):
        source = (
            "program unbalanced():\n"
            "    x = init(myrank)\n"
            "    if x % 2 == 0:\n"
            "        checkpoint\n"
            "        x = x + 1\n"
            "    else:\n"
            "        x = x + 2\n"
        )
        program = parse(source)
        assert_agree(program)
        ext = build_extended_cfg(program)
        result = check_condition1(ext)
        assert not result.ok
        assert not result.balanced
        assert "different checkpoint counts" in result.reason
