"""Phase II by dataflow vs. the per-path enumerator it replaced.

``repro.phases.matching`` decides Algorithm 3.1 from one
rank-reachability mask per node (``repro.attributes.domain``);
``path_oracle`` is the old procedure, which tabulates every send/recv
occurrence on every once-through path. The dataflow is distributive, so
the two must agree exactly — on generated programs with nested and
sequential ID-dependent branches, empty arms, loops (also a loop ending
in a loop), collectives and irregular conditions — while each condition
and each endpoint is evaluated once, whatever the number of paths or
system sizes.
"""

from hypothesis import given, settings

from repro.attributes import domain
from repro.attributes.contradiction import Universe
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.phases.matching import match_messages
from repro.phases.pipeline import transform

from .path_oracle import match_by_paths
from .program_strategies import (
    diamond_chain,
    grammar_programs,
    prefixed_family_programs,
)


def _agree(program):
    result = match_messages(program, require_complete=False)
    cfg = result.extended.cfg
    edges = [
        (edge.send_id, edge.recv_id, edge.reason)
        for edge in result.extended.message_edges
        if not cfg.node(edge.send_id).collective
    ]
    oracle = match_by_paths(program)
    assert edges == oracle.node_edges
    assert result.unmatched_recv_ids == oracle.unmatched_recv_ids
    # The literal old loop: same decisions always, same order and same
    # witnesses whenever they do not hinge on which path came first.
    assert {e[:2] for e in edges} == {e[:2] for e in oracle.edges}
    if oracle.path_insensitive:
        assert edges == oracle.edges
    considered = result.report.considered
    assert len(considered) == len(set(considered))  # once per node pair
    return edges, oracle


@settings(max_examples=120, deadline=None)
@given(program=grammar_programs())
def test_dataflow_matches_path_enumeration_on_grammar_programs(program):
    _agree(program)


@settings(max_examples=60, deadline=None)
@given(program=prefixed_family_programs())
def test_dataflow_matches_path_enumeration_on_program_families(program):
    edges, _ = _agree(program)
    assert edges


def test_path_sensitive_program_gets_the_least_witness():
    """Where the old loop's witness hinged on the path order, the
    dataflow reports the least one (same edge either way)."""
    edges, oracle = _agree(parse(
        "program t():\n"
        "    x = 1\n"
        "    if myrank % 3 == 0:\n"
        "        x = 2\n"
        "    else:\n"
        "        x = 3\n"
        "    if myrank % 2 == 0:\n"
        "        send(myrank + 1, x)\n"
        "    else:\n"
        "        y = recv(myrank - 1)\n"
    ))
    assert not oracle.path_insensitive
    assert [reason for *_, reason in edges] == ["n=2: P0 -> P1"]
    # First context pair met: both on the all-false path of diamond one.
    assert [reason for *_, reason in oracle.edges] == ["n=6: P4 -> P5"]


def test_loop_ending_in_a_loop_is_traversed_once():
    """The inner loop's exit edge is the outer loop's backward edge; the
    once-through DAG used to keep it, so no path left the nest, nothing
    was matched, and moving a trailing checkpoint out of the outer body
    changed what Phase II saw."""
    edges, oracle = _agree(parse(
        "program t():\n"
        "    i = 0\n"
        "    if myrank % 2 == 0:\n"
        "        send(myrank + 1, i)\n"
        "        while i < 2:\n"
        "            i = i + 1\n"
        "            while i < 3:\n"
        "                i = i + 1\n"
        "    else:\n"
        "        y = recv(myrank - 1)\n"
    ))
    assert [reason for *_, reason in edges] == ["n=2: P0 -> P1"]
    assert oracle.unmatched_recv_ids == ()


class TestEmptyArms:
    """Both arms of an ID-dependent ``if`` empty: parallel edges."""

    SOURCE = (
        "program t():\n"
        "    x = 1\n"
        "    if myrank % 2 == 0:\n"
        "        checkpoint\n"
        "    if myrank % 2 == 0:\n"
        "        send(myrank + 1, x)\n"
        "    else:\n"
        "        y = recv(myrank - 1)\n"
    )

    def test_hoisting_the_only_statement_of_an_arm_still_transforms(self):
        # Phase III hoists the checkpoint out of the first `if`, leaving
        # both its arms empty; matching the result used to lose every
        # odd rank and raise MatchingError.
        result = transform(parse(self.SOURCE))
        assert result.verification.ok
        first_if = next(
            s for s in result.program.body.statements
            if isinstance(s, ast.If)
        )
        assert not first_if.then_block.statements
        assert not first_if.else_block.statements
        (edge,) = result.placement.extended.message_edges
        cfg = result.placement.extended.cfg
        assert isinstance(cfg.node(edge.send_id).stmt, ast.Send)
        assert isinstance(cfg.node(edge.recv_id).stmt, ast.Recv)

    def test_arm_cleared_by_hand_keeps_the_false_ranks(self):
        program = parse(self.SOURCE)
        first_if = program.body.statements[1]
        first_if.then_block.statements.clear()
        result = match_messages(program)
        (edge,) = result.extended.message_edges
        assert edge.reason == "n=2: P0 -> P1"
        assert result.unmatched_recv_ids == ()
        _agree(program)


class TestOperationCount:
    """The cost the dataflow removed cannot come back unseen."""

    @staticmethod
    def _evaluations(monkeypatch, source: str, universe=Universe()) -> int:
        calls = []
        real = domain.evaluate

        def counting(*args):
            calls.append(1)
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(domain, "evaluate", counting)
            match_messages(parse(source), universe=universe)
        return len(calls)

    def test_evaluations_grow_linearly_with_diamonds(self, monkeypatch):
        at_8 = self._evaluations(monkeypatch, diamond_chain(8))
        at_16 = self._evaluations(monkeypatch, diamond_chain(16))
        # 8 diamonds + the exchange branch, then the send and the recv:
        # one call each, over all 152 (size, rank) points at once.
        assert at_8 == (8 + 1) + 2
        assert at_16 - at_8 == 8

    def test_evaluations_do_not_grow_with_the_universe(self, monkeypatch):
        source = diamond_chain(8)
        counts = [
            self._evaluations(monkeypatch, source, Universe(sizes=sizes))
            for sizes in ((2,), tuple(range(2, 18)), tuple(range(2, 65)))
        ]
        assert counts == [11, 11, 11]

    def test_program_without_messages_evaluates_nothing(self, monkeypatch):
        source = diamond_chain(9, exchange=False)
        assert self._evaluations(monkeypatch, source) == 0

    def test_24_diamonds_transform_and_verify(self):
        # 2^25 once-through paths: the enumerator raised CFGError
        # ("more than 100000 entry-exit paths") from 17 diamonds on.
        result = transform(parse(diamond_chain(24)))
        assert result.verification.ok
        assert len(result.placement.extended.message_edges) == 1
