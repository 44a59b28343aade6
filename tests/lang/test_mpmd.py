"""MPMD synthesis tests (the paper's §3 MPMD claim)."""

import pytest

from repro.errors import LanguageError
from repro.lang import ast_nodes as ast
from repro.lang.mpmd import RankSet, Role, combine_mpmd
from repro.lang.parser import parse
from repro.phases import ensure_recovery_lines, verify_program
from repro.runtime import Simulation



def role_of_rank(roles: list[Role], rank: int, nprocs: int) -> int | None:
    """Index of the role *rank* executes, or None if unassigned."""
    claimed: set[int] = set()
    for position, role in enumerate(roles):
        if role.ranks.kind == "rest":
            members = frozenset(range(nprocs)) - claimed
        else:
            members = role.ranks.members(nprocs)
        if rank in members:
            return position
        claimed |= members
    return None


COORDINATOR_SOURCE = """\
program coordinator():
    i = 0
    while i < steps:
        checkpoint
        task = init(i)
        w = 1
        while w < nprocs:
            send(w, combine(task, w))
            w = w + 1
        w = 1
        while w < nprocs:
            r = recv(w)
            task = combine(task, r)
            w = w + 1
        i = i + 1
"""

WORKER_SOURCE = """\
program worker():
    i = 0
    while i < steps:
        checkpoint
        job = recv(0)
        compute(4)
        send(0, relax(job, myrank))
        i = i + 1
"""


def roles():
    return [
        Role(parse(COORDINATOR_SOURCE), RankSet.exact(0)),
        Role(parse(WORKER_SOURCE), RankSet.rest()),
    ]


class TestRankSet:
    def test_exact_members(self):
        assert RankSet.exact(0, 2).members(4) == frozenset({0, 2})

    def test_exact_filters_out_of_range(self):
        assert RankSet.exact(0, 9).members(4) == frozenset({0})

    def test_range_members(self):
        assert RankSet.range(1, 3).members(5) == frozenset({1, 2})

    def test_range_open_end(self):
        assert RankSet.range(2).members(5) == frozenset({2, 3, 4})

    def test_negative_bounds_relative_to_nprocs(self):
        assert RankSet.range(-2).members(6) == frozenset({4, 5})
        assert RankSet.range(0, -1).members(4) == frozenset({0, 1, 2})

    def test_exact_predicate_is_rank_test(self):
        predicate = RankSet.exact(3).predicate()
        assert isinstance(predicate, ast.BinOp) and predicate.op == "=="

    def test_rest_has_no_predicate(self):
        with pytest.raises(LanguageError):
            RankSet.rest().predicate()

    def test_exact_needs_ranks(self):
        with pytest.raises(LanguageError):
            RankSet.exact()


class TestCombine:
    def test_dispatch_structure(self):
        program = combine_mpmd(roles())
        top = program.body.statements[0]
        assert isinstance(top, ast.If)

    def test_role_of_rank(self):
        rs = roles()
        assert role_of_rank(rs, 0, 4) == 0
        assert role_of_rank(rs, 3, 4) == 1

    def test_unassigned_rank(self):
        only = [Role(parse(WORKER_SOURCE), RankSet.exact(1))]
        assert role_of_rank(only, 2, 4) is None

    def test_rest_must_be_last(self):
        bad = [
            Role(parse(WORKER_SOURCE), RankSet.rest()),
            Role(parse(COORDINATOR_SOURCE), RankSet.exact(0)),
        ]
        with pytest.raises(LanguageError, match="last"):
            combine_mpmd(bad)

    def test_single_rest_role_only(self):
        bad = [
            Role(parse(WORKER_SOURCE), RankSet.rest()),
            Role(parse(COORDINATOR_SOURCE), RankSet.rest()),
        ]
        with pytest.raises(LanguageError, match="one 'rest'"):
            combine_mpmd(bad)

    def test_inputs_not_mutated(self):
        rs = roles()
        before = len(rs[0].program.body.statements)
        combine_mpmd(rs)
        assert len(rs[0].program.body.statements) == before

    def test_empty_roles_rejected(self):
        with pytest.raises(LanguageError):
            combine_mpmd([])


class TestMpmdPipeline:
    def test_combined_program_verifies_same_iteration(self):
        """Per-role checkpoints are distinct CFG nodes, so conservative
        mode flags the cross-role back-edge paths; the loop-optimised
        check (same-iteration paths only) accepts the placement, and
        the simulator confirms it is safe."""
        program = combine_mpmd(roles())
        assert not verify_program(program, include_back_edge_paths=True).ok
        assert verify_program(program, include_back_edge_paths=False).ok

    def test_conservative_repair_hoists_to_common_point(self):
        program = combine_mpmd(roles())
        repaired = ensure_recovery_lines(program)
        assert verify_program(repaired.program).ok
        trace = Simulation(
            repaired.program, 4, params={"steps": 4}
        ).run().trace
        assert trace.all_straight_cuts_consistent()

    def test_combined_program_simulates(self):
        program = combine_mpmd(roles())
        result = Simulation(program, 4, params={"steps": 4}).run()
        assert result.stats.completed
        assert result.trace.all_straight_cuts_consistent()

    def test_unsafe_mpmd_repaired(self):
        """A worker variant that checkpoints after its receive breaks
        Condition 1; Phase III must repair the combined program."""
        late_worker = parse(
            "program worker():\n"
            "    i = 0\n"
            "    while i < steps:\n"
            "        job = recv(0)\n"
            "        checkpoint\n"
            "        compute(4)\n"
            "        send(0, relax(job, myrank))\n"
            "        i = i + 1\n"
        )
        program = combine_mpmd(
            [
                Role(parse(COORDINATOR_SOURCE), RankSet.exact(0)),
                Role(late_worker, RankSet.rest()),
            ]
        )
        assert not verify_program(program).ok
        repaired = ensure_recovery_lines(program)
        assert verify_program(repaired.program).ok
        trace = Simulation(
            repaired.program, 4, params={"steps": 4}
        ).run().trace
        assert trace.all_straight_cuts_consistent()

    def test_three_role_pipeline(self):
        source = parse(
            "program source():\n"
            "    i = 0\n"
            "    while i < steps:\n"
            "        checkpoint\n"
            "        send(1, init(i))\n"
            "        i = i + 1\n"
        )
        filter_role = parse(
            "program filter():\n"
            "    i = 0\n"
            "    while i < steps:\n"
            "        checkpoint\n"
            "        v = recv(0)\n"
            "        send(2, relax(v, 1))\n"
            "        i = i + 1\n"
        )
        sink = parse(
            "program sink():\n"
            "    acc = 0\n"
            "    i = 0\n"
            "    while i < steps:\n"
            "        checkpoint\n"
            "        v = recv(1)\n"
            "        acc = combine(acc, v)\n"
            "        i = i + 1\n"
        )
        program = combine_mpmd(
            [
                Role(source, RankSet.exact(0)),
                Role(filter_role, RankSet.exact(1)),
                Role(sink, RankSet.exact(2)),
            ]
        )
        assert verify_program(program, include_back_edge_paths=False).ok
        result = Simulation(program, 3, params={"steps": 5}).run()
        assert result.stats.completed
        assert result.trace.all_straight_cuts_consistent()
