"""Cooper–Harvey–Kennedy dominators against the set fixpoint.

:func:`~repro.cfg.dominators.compute_dominators` derives every
dominator set from immediate dominators found over reverse postorder;
``dominator_oracle`` is the iterative set-intersection dataflow it
replaced. The two must return the same ``dict`` — on the Phase II
grammar's programs (nested and sequential branches, empty arms,
``while``/``for`` loops, collectives), on every shipped program, and on
loops whose body ends in another loop, where the inner exit edge is the
outer loop's backward edge.
"""

import pytest
from hypothesis import given, settings

from repro.cfg import build_cfg
from repro.cfg.dominators import compute_dominators
from repro.lang.parser import parse
from repro.lang.programs import load_program, program_names

from ..attributes.program_strategies import grammar_programs
from .dominator_oracle import dominators_by_fixpoint

LOOP_ENDING_IN_A_LOOP = (
    "while i < 2:\n"
    "    i = i + 1\n"
    "    while i < 3:\n"
    "        i = i + 1\n",
    "for k in range(2):\n"
    "    checkpoint\n"
    "    while i < 3:\n"
    "        i = i + 1\n"
    "        for j in range(2):\n"
    "            compute(1)\n",
    "while i < 2:\n"
    "    if myrank % 2 == 0:\n"
    "        while i < 3:\n"
    "            i = i + 1\n"
    "    else:\n"
    "        while i < 4:\n"
    "            i = i + 2\n",
    "while i < 2:\n"
    "    while i < 3:\n"
    "        while i < 4:\n"
    "            i = i + 1\n"
    "z = 1\n",
)


def _agree(program):
    cfg = build_cfg(program)
    assert compute_dominators(cfg) == dominators_by_fixpoint(cfg)


@settings(max_examples=120, deadline=None)
@given(program=grammar_programs())
def test_dominators_equal_the_fixpoint_on_grammar_programs(program):
    _agree(program)


@pytest.mark.parametrize("name", program_names())
def test_dominators_equal_the_fixpoint_on_shipped_programs(name):
    _agree(load_program(name))


@pytest.mark.parametrize("body", LOOP_ENDING_IN_A_LOOP)
def test_dominators_equal_the_fixpoint_on_loops_ending_in_loops(body):
    lines = ["program t():", "    i = 0", *(
        "    " + line for line in body.splitlines()
    )]
    _agree(parse("\n".join(lines) + "\n"))
