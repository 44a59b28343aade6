"""Phase II (Algorithm 3.1 message matching) tests."""

import pytest

from repro.cfg import build_cfg
from repro.errors import MatchingError
from repro.lang.parser import parse
from repro.lang.programs import (
    broadcast_reduce,
    irregular_dispatch,
    jacobi,
    jacobi_odd_even,
    master_worker,
    ring_pipeline,
    stencil_1d,
)
from repro.phases.matching import build_extended_cfg, match_messages


def program(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestCompleteness:
    """Lemma 3.1: the true sender is always among the matches."""

    def test_every_recv_matched(self, any_program):
        result = match_messages(any_program)
        assert result.unmatched_recv_ids == ()

    def test_jacobi_cross_parity_edges(self):
        ext = build_extended_cfg(jacobi())
        cfg = ext.cfg
        assert len(ext.message_edges) == 2
        for edge in ext.message_edges:
            send = cfg.node(edge.send_id)
            recv = cfg.node(edge.recv_id)
            assert send.stmt is not recv.stmt

    def test_ring_wraparound_matched(self):
        ext = build_extended_cfg(ring_pipeline())
        # rank-0 recv from nprocs-1 must match the non-zero send
        cfg = ext.cfg
        rank0_recv = next(
            n for n in cfg.recv_nodes() if "nprocs" in n.label
        )
        assert ext.matches_for_recv(rank0_recv.node_id)

    def test_master_worker_star_topology(self):
        ext = build_extended_cfg(master_worker())
        for recv in ext.cfg.recv_nodes():
            assert ext.matches_for_recv(recv.node_id)
        assert len(ext.message_edges) == 3

    def test_stencil_neighbour_edges(self):
        assert len(build_extended_cfg(stencil_1d()).message_edges) == 4


class TestCollectives:
    def test_bcast_prematched(self):
        ext = build_extended_cfg(broadcast_reduce())
        cfg = ext.cfg
        coll_recv = next(n for n in cfg.recv_nodes() if n.collective)
        matches = ext.matches_for_recv(coll_recv.node_id)
        assert len(matches) == 1
        assert cfg.node(matches[0]).collective

    def test_collective_edge_reason(self):
        ext = build_extended_cfg(broadcast_reduce())
        reasons = [m.reason for m in ext.message_edges]
        assert any("collective" in r for r in reasons)


class TestIrregularPatterns:
    def test_irregular_recv_matches_multiple_sends(self):
        source = program(
            "if myrank == 0:\n"
            "    send(1, 10)\n"
            "elif myrank == 2:\n"
            "    send(1, 20)\n"
            "else:\n"
            "    y = recv(input(who) % nprocs)\n"
        )
        ext = build_extended_cfg(source)
        recv = ext.cfg.recv_nodes()[0]
        assert len(ext.matches_for_recv(recv.node_id)) == 2

    def test_irregular_dispatch_workers_match_master(self):
        ext = build_extended_cfg(irregular_dispatch())
        assert all(
            ext.matches_for_recv(r.node_id) for r in ext.cfg.recv_nodes()
        )


class TestContradictionPruning:
    def test_parity_contradiction_prunes_same_branch_match(self):
        ext = build_extended_cfg(jacobi())
        cfg = ext.cfg
        # even-branch send must NOT match even-branch recv
        for edge in ext.message_edges:
            send_stmt = cfg.node(edge.send_id).stmt
            recv_stmt = cfg.node(edge.recv_id).stmt
            assert send_stmt.line != recv_stmt.line or send_stmt is recv_stmt

    def test_report_counts_considered_pairs(self):
        result = match_messages(jacobi())
        assert len(result.report.considered) >= 4
        assert len(result.report.contradicted) >= 1


class TestFailureModes:
    def test_unmatchable_recv_raises(self):
        source = program(
            "if myrank == 0:\n"
            "    y = recv(1)\n"
            "else:\n"
            "    compute(1)\n"
        )
        with pytest.raises(MatchingError, match="no matching send"):
            build_extended_cfg(source)

    def test_partial_result_when_not_required(self):
        source = program(
            "if myrank == 0:\n"
            "    y = recv(1)\n"
            "else:\n"
            "    compute(1)\n"
        )
        result = match_messages(source, require_complete=False)
        assert len(result.unmatched_recv_ids) == 1

    def test_contradicting_constant_endpoints_unmatched(self):
        source = program(
            "if myrank == 0:\n"
            "    send(1, 5)\n"
            "else:\n"
            "    y = recv(3)\n"
        )
        # receiver claims source 3 but only rank 0 sends, to rank 1:
        # rank 1's recv(3) can never see rank 0's send... except ranks
        # other than 0/1 also execute recv(3) and source 3 is not 0.
        with pytest.raises(MatchingError):
            build_extended_cfg(source)

    def test_reuses_supplied_cfg(self):
        prog = jacobi_odd_even()
        cfg = build_cfg(prog)
        ext = build_extended_cfg(prog, cfg=cfg)
        assert ext.cfg is cfg
