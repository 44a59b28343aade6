"""Rank-reachability tables and contradiction-checking tests."""

import pytest

from repro.attributes.contradiction import (
    CompatibilityReport,
    Universe,
    tables_compatible,
)
from repro.attributes.dataflow import classify_variables, single_assignments
from repro.attributes.domain import node_tables
from repro.cfg import build_cfg
from repro.lang.parser import parse
from repro.lang.programs import jacobi, ring_pipeline


def tables_for(program):
    """``(send tables, recv tables)`` of *program*, in node order."""
    cfg = build_cfg(program)
    sends = {n.node_id: n.stmt.dest for n in cfg.send_nodes()}
    recvs = {n.node_id: n.stmt.source for n in cfg.recv_nodes()}
    tables = node_tables(
        cfg,
        sends | recvs,
        classify_variables(program),
        single_assignments(program),
        Universe().sizes,
    )
    return [tables[i] for i in sends], [tables[i] for i in recvs]


def admits(table, rank, nprocs):
    return rank in dict(table[nprocs])


class TestNodeTables:
    def test_every_send_recv_has_a_table_per_size(self):
        sends, recvs = tables_for(jacobi())
        assert len(sends) == len(recvs) == 2
        for table in sends + recvs:
            assert tuple(table) == Universe().sizes

    def test_parity_guard_recorded(self):
        sends, _ = tables_for(jacobi())
        even_send = next(t for t in sends if admits(t, 0, 4))
        assert not admits(even_send, 1, 4)

    def test_endpoint_value_evaluates(self):
        sends, _ = tables_for(jacobi())
        even_send = next(t for t in sends if admits(t, 0, 4))
        assert even_send[4] == [(0, 1), (2, 3)]

    def test_neutral_loop_condition_is_not_a_guard(self):
        # The while-loop condition (i < steps) must not restrict ranks:
        # between them the two arms admit every rank of every size.
        sends, _ = tables_for(jacobi())
        for nprocs in Universe().sizes:
            ranks = {rank for table in sends for rank, _ in table[nprocs]}
            assert ranks == set(range(nprocs))

    def test_rank_zero_branch(self):
        _, recvs = tables_for(ring_pipeline())
        rank0_recv = [t for t in recvs if admits(t, 0, 4)]
        others = [t for t in recvs if admits(t, 2, 4)]
        assert rank0_recv and others
        assert all(t not in others for t in rank0_recv)

    def test_sequential_guards_union_over_paths(self):
        program = parse(
            "program t():\n"
            "    if myrank % 3 == 0:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    if myrank % 2 == 0:\n"
            "        send(myrank + 1, x)\n"
            "    else:\n"
            "        y = recv(myrank - 1)\n"
        )
        (send,), (recv,) = tables_for(program)
        # Both arms of the first diamond rejoin: its guard drops out.
        assert [rank for rank, _ in send[6]] == [0, 2, 4]
        assert [rank for rank, _ in recv[6]] == [1, 3, 5]


class TestUniverse:
    def test_default_universe(self):
        assert Universe().sizes == tuple(range(2, 18))

    def test_invalid_universe_rejected(self):
        with pytest.raises(ValueError):
            Universe(sizes=())
        with pytest.raises(ValueError):
            Universe(sizes=(0,))


class TestEndpointCompatibility:
    def test_jacobi_even_send_matches_odd_recv(self):
        sends, recvs = tables_for(jacobi())
        even_send = next(t for t in sends if admits(t, 0, 4))
        odd_recv = next(t for t in recvs if admits(t, 1, 4))
        witness = tables_compatible(even_send, odd_recv)
        assert witness is not None
        assert witness.sender % 2 == 0
        assert witness.receiver == witness.sender + 1

    def test_parity_contradiction_rejected(self):
        sends, recvs = tables_for(jacobi())
        even_send = next(t for t in sends if admits(t, 0, 4))
        even_recv = next(t for t in recvs if admits(t, 0, 4))
        # even sends to myrank+1 (odd); even receives from myrank+1 (odd
        # source) — the sender cannot be even. Contradiction.
        assert tables_compatible(even_send, even_recv) is None

    def test_irregular_endpoint_matches_liberally(self):
        program = parse(
            "program t():\n"
            "    if myrank == 0:\n"
            "        send(input(target) % nprocs, 1)\n"
            "    else:\n"
            "        y = recv(0)\n"
        )
        (send,), (recv,) = tables_for(program)
        assert tables_compatible(send, recv) is not None

    def test_constant_endpoints_must_agree(self):
        program = parse(
            "program t():\n"
            "    if myrank == 0:\n"
            "        send(1, 7)\n"
            "    else:\n"
            "        y = recv(2)\n"
        )
        (send,), (recv,) = tables_for(program)
        # send targets rank 1, but the recv names source rank 2 while
        # only non-zero ranks execute it; source 2 != sender 0.
        assert tables_compatible(send, recv) is None

    def test_witness_is_concrete_and_valid(self):
        sends, recvs = tables_for(ring_pipeline())
        for send in sends:
            for recv in recvs:
                witness = tables_compatible(send, recv)
                if witness is None:
                    continue
                assert 0 <= witness.sender < witness.nprocs
                assert 0 <= witness.receiver < witness.nprocs
                assert admits(send, witness.sender, witness.nprocs)
                assert admits(recv, witness.receiver, witness.nprocs)


class TestCompatibilityReport:
    def test_report_records_both_outcomes(self):
        report = CompatibilityReport()
        report.record(1, 2, None)
        from repro.attributes.contradiction import MatchWitness

        report.record(3, 4, MatchWitness(4, 0, 1))
        assert report.considered == [(1, 2), (3, 4)]
        assert report.contradicted == [(1, 2)]
        assert len(report.matched) == 1
