"""The once-through DAG of a loop that ends in another loop.

The inner header's exit edge is then the outer loop's backward edge.
Leaving the inner loop must leave the outer one as well (its body has
been traversed once); the construction used to hand the inner tail an
edge back to the outer header instead, so no path reached the exit,
``index_checkpoints`` fell back to an enumeration of zero paths and
Condition 1 held vacuously for any checkpoint placed in such a nest.
"""

import pytest

from repro.cfg import build_cfg
from repro.cfg.paths import index_checkpoints, once_through
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.phases.verification import verify_program

from .path_enumeration import acyclic_paths, enumerate_checkpoints

NESTS = {
    "double": (
        "    while i < 2:\n"
        "        i = i + 1\n"
        "        while i < 3:\n"
        "            checkpoint\n"
        "            i = i + 1\n"
    ),
    "triple": (
        "    while i < 2:\n"
        "        for k in range(2):\n"
        "            checkpoint\n"
        "            while i < 3:\n"
        "                i = i + 1\n"
    ),
    "empty_inner_body": (
        "    while i < 2:\n"
        "        checkpoint\n"
        "        while i < 3:\n"
        "            pass\n"
    ),
    "in_one_arm": (
        "    if myrank == 0:\n"
        "        while i < 2:\n"
        "            while i < 3:\n"
        "                checkpoint\n"
        "                i = i + 1\n"
        "    else:\n"
        "        checkpoint\n"
    ),
}


def _program(name: str) -> ast.Program:
    program = parse(f"program t():\n    i = 0\n{NESTS[name]}    x = i\n")
    for node in ast.walk(program):
        if isinstance(node, (ast.While, ast.For)):
            node.body.statements[:] = [
                s for s in node.body.statements if not isinstance(s, ast.Pass)
            ]
    return program


@pytest.mark.parametrize("name", sorted(NESTS))
def test_every_node_lies_on_a_complete_path(name):
    cfg = build_cfg(_program(name))
    dag = once_through(cfg)
    assert dag.live == {node.node_id for node in cfg.nodes()}
    assert set(dag.order) == dag.live
    paths = acyclic_paths(cfg)
    assert paths and {n for path in paths for n in path} == dag.live


@pytest.mark.parametrize("name", sorted(NESTS))
def test_checkpoints_in_the_nest_are_indexed(name):
    cfg = build_cfg(_program(name))
    indexing = index_checkpoints(cfg)
    enumeration = enumerate_checkpoints(cfg)
    assert indexing.columns == enumeration.columns
    assert indexing.depth == 1
    assert indexing.columns[0] == {
        node.node_id for node in cfg.checkpoint_nodes()
    }


def test_condition_1_is_no_longer_vacuous_in_the_nest():
    program = parse(
        "program t():\n"
        "    i = 0\n"
        "    while i < 2:\n"
        "        i = i + 1\n"
        "        while i < 3:\n"
        "            if myrank % 2 == 0:\n"
        "                checkpoint\n"
        "                send(myrank + 1, i)\n"
        "            else:\n"
        "                y = recv(myrank - 1)\n"
        "                checkpoint\n"
        "            i = i + 1\n"
    )
    result = verify_program(program, include_back_edge_paths=False)
    assert not result.ok
    assert result.violations[0].index == 1
