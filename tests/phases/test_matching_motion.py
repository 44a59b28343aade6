"""Phase II is invariant under checkpoint motion.

``ensure_recovery_lines`` matches once and replays the statement-level
message edges onto the CFG of every later iteration. That is sound only
if inserting, moving, hoisting, merging or deleting ``checkpoint``
statements never changes what a fresh match would return — edge order
included, because the order fixes which violation Phase III meets first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.builder import build_cfg
from repro.lang import ast_nodes as ast
from repro.lang.generator import generate_exchange_program
from repro.lang.programs import load_program, program_names
from repro.phases.matching import (
    attach_message_edges,
    match_messages,
    statement_edges,
)
from repro.phases.placement import (
    _hoist_one_level,
    _merge_adjacent_checkpoints,
    ensure_recovery_lines,
)

from ..attributes.program_strategies import grammar_programs


def _blocks(program: ast.Program) -> list[ast.Block]:
    return [node for node in ast.walk(program) if isinstance(node, ast.Block)]


def _checkpoints(program: ast.Program) -> list[tuple[ast.Block, int]]:
    return [
        (block, position)
        for block in _blocks(program)
        for position, stmt in enumerate(block.statements)
        if isinstance(stmt, ast.Checkpoint)
    ]


def _new_checkpoint(program: ast.Program) -> ast.Checkpoint:
    """A checkpoint whose id no node of *program* holds yet."""
    return ast.Checkpoint(
        node_id=max(node.node_id for node in ast.walk(program)) + 1
    )


def _mutate(program: ast.Program, op: str, a: int, b: int) -> None:
    """One legal rearrangement of checkpoint statements, in place."""
    placed = _checkpoints(program)
    blocks = _blocks(program)
    target = blocks[a % len(blocks)]
    slot = b % (len(target.statements) + 1)
    if op == "insert" or not placed:
        target.statements.insert(slot, _new_checkpoint(program))
        return
    block, position = placed[a % len(placed)]
    if op == "merge":
        block.statements.insert(position, _new_checkpoint(program))
        _merge_adjacent_checkpoints(program)
    elif op == "hoist":
        if block is not program.body:
            _hoist_one_level(program, block.statements[position], "test", 1)
    else:
        stmt = block.statements.pop(position)
        if op == "move":
            target.statements.insert(min(slot, len(target.statements)), stmt)


def _edges(extended):
    return [(m.send_id, m.recv_id, m.reason) for m in extended.message_edges]


def _check_invariant(program: ast.Program, mutations) -> None:
    facts = statement_edges(
        match_messages(program, require_complete=False).extended
    )
    for op, a, b in mutations:
        _mutate(program, op, a, b)
        fresh = match_messages(program, require_complete=False).extended
        replayed = attach_message_edges(build_cfg(program), facts)
        assert _edges(replayed) == _edges(fresh)
        assert statement_edges(fresh) == facts


_mutations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "move", "hoist", "merge", "delete"]),
        st.integers(0, 1000),
        st.integers(0, 1000),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(program=grammar_programs(), mutations=_mutations)
def test_replayed_match_equals_fresh_match_on_grammar_programs(
    program, mutations
):
    _check_invariant(program, mutations)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 5000),
    position=st.sampled_from(["head", "split"]),
    mutations=_mutations,
)
def test_replayed_match_equals_fresh_match_on_exchange_programs(
    seed, position, mutations
):
    program = generate_exchange_program(seed, checkpoint_position=position)
    _check_invariant(program, mutations)


def test_final_extended_cfg_is_what_a_fresh_match_builds():
    """The ``extended`` Phase III hands back (Phase IV's input) equals
    a from-scratch match of the program it returns."""
    for name in program_names():
        placement = ensure_recovery_lines(load_program(name))
        fresh = match_messages(placement.program).extended
        assert placement.extended.cfg is not fresh.cfg
        assert _edges(placement.extended) == _edges(fresh)
        assert [repr(n) for n in placement.extended.cfg.nodes()] == [
            repr(n) for n in fresh.cfg.nodes()
        ]


def test_phase_iv_checks_the_match_made_under_the_callers_universe():
    """``transform`` used to re-match for Phase IV under the *default*
    universe whatever the caller passed to Phases II/III."""
    from repro.attributes.contradiction import Universe
    from repro.lang.parser import parse
    from repro.phases.matching import build_extended_cfg
    from repro.phases.pipeline import transform

    program = parse(
        "program t():\n"
        "    x = 1\n"
        "    checkpoint\n"
        "    if myrank == 0:\n"
        "        y = recv(input(who) % nprocs)\n"
        "    elif myrank == 1:\n"
        "        send(0, x)\n"
        "    elif myrank == 2:\n"
        "        send(0, x)\n"
    )
    pairs_only = Universe(sizes=(2,))
    result = transform(program, universe=pairs_only)
    checked = _edges(result.placement.extended)
    assert checked == _edges(
        build_extended_cfg(result.program, universe=pairs_only)
    )
    assert len(checked) == 1  # rank 2 does not exist when n = 2
    assert len(build_extended_cfg(result.program).message_edges) == 2
