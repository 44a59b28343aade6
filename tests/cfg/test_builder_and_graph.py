"""CFG construction and graph data-structure tests."""

import pytest

from repro.cfg import CFG, NodeKind, build_cfg
from repro.cfg.graph import ExtendedCFG
from repro.errors import CFGError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.programs import jacobi, jacobi_odd_even


def body(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestGraphBasics:
    def test_single_entry_and_exit(self, any_program):
        cfg = build_cfg(any_program)
        assert len(cfg.nodes_of_kind(NodeKind.ENTRY)) == 1
        assert len(cfg.nodes_of_kind(NodeKind.EXIT)) == 1

    def test_duplicate_entry_rejected(self):
        cfg = CFG()
        cfg.add_node(NodeKind.ENTRY)
        with pytest.raises(CFGError, match="entry"):
            cfg.add_node(NodeKind.ENTRY)

    def test_edge_endpoints_must_exist(self):
        cfg = CFG()
        node = cfg.add_node(NodeKind.ENTRY)
        with pytest.raises(CFGError):
            cfg.add_edge(node.node_id, 99)

    def test_unknown_node_lookup(self):
        cfg = CFG()
        with pytest.raises(CFGError, match="unknown node"):
            cfg.node(5)

    def test_successors_and_predecessors_inverse(self, jacobi_program):
        cfg = build_cfg(jacobi_program)
        for edge in cfg.edges():
            assert edge.dst in cfg.successors(edge.src)
            assert edge.src in cfg.predecessors(edge.dst)

    def test_contains_and_len(self, jacobi_program):
        cfg = build_cfg(jacobi_program)
        assert cfg.entry_id in cfg
        assert len(cfg) == sum(1 for _ in cfg.nodes())


class TestStatementNodes:
    def test_jacobi_node_inventory(self):
        cfg = build_cfg(jacobi())
        assert len(cfg.send_nodes()) == 2
        assert len(cfg.recv_nodes()) == 2
        assert len(cfg.checkpoint_nodes()) == 1

    def test_send_recv_carry_statements(self):
        cfg = build_cfg(jacobi())
        for node in cfg.send_nodes():
            assert isinstance(node.stmt, ast.Send)
        for node in cfg.recv_nodes():
            assert isinstance(node.stmt, ast.Recv)

    def test_branch_for_if(self):
        cfg = build_cfg(body("if myrank == 0:\n    x = 1\nelse:\n    x = 2"))
        branches = cfg.nodes_of_kind(NodeKind.BRANCH)
        assert len(branches) == 1
        labels = {e.label for e in cfg.out_edges(branches[0].node_id)}
        assert labels == {"true", "false"}

    def test_join_after_if(self):
        cfg = build_cfg(body("if myrank == 0:\n    x = 1\nelse:\n    x = 2"))
        assert len(cfg.nodes_of_kind(NodeKind.JOIN)) == 1

    def test_while_header_is_loop_header(self):
        cfg = build_cfg(body("while i < 3:\n    i = i + 1"))
        headers = [n for n in cfg.nodes() if n.is_loop_header]
        assert len(headers) == 1
        assert headers[0].kind is NodeKind.BRANCH

    def test_for_lowered_like_while(self):
        cfg = build_cfg(body("for k in range(3):\n    compute(k)"))
        headers = [n for n in cfg.nodes() if n.is_loop_header]
        assert len(headers) == 1

    def test_a_checkpoint_statement_has_one_node(self):
        program = jacobi()
        cfg = build_cfg(program)
        checkpoint_stmt = next(
            n for n in ast.walk(program) if isinstance(n, ast.Checkpoint)
        )
        nodes = [
            node for node in cfg.nodes()
            if node.stmt is not None
            and node.stmt.node_id == checkpoint_stmt.node_id
        ]
        assert len(nodes) == 1
        assert nodes[0].kind is NodeKind.CHECKPOINT


class TestBcastLowering:
    def test_bcast_creates_collective_pair(self):
        cfg = build_cfg(body("v = bcast(0, x)"))
        sends = cfg.send_nodes()
        recvs = cfg.recv_nodes()
        assert len(sends) == 1 and sends[0].collective
        assert len(recvs) == 1 and recvs[0].collective

    def test_bcast_branch_marked(self):
        cfg = build_cfg(body("v = bcast(0, x)"))
        branch = cfg.nodes_of_kind(NodeKind.BRANCH)[0]
        assert branch.attrs.get("bcast") is True

    def test_bcast_paths_rejoin(self):
        cfg = build_cfg(body("v = bcast(0, x)\ny = 1"))
        joins = cfg.nodes_of_kind(NodeKind.JOIN)
        assert len(joins) == 1


class TestExtendedCFG:
    def test_message_edge_requires_send_and_recv(self):
        cfg = build_cfg(jacobi())
        ext = ExtendedCFG(cfg)
        send = cfg.send_nodes()[0]
        recv = cfg.recv_nodes()[0]
        ext.add_message_edge(send.node_id, recv.node_id)
        assert ext.matches_for_recv(recv.node_id) == [send.node_id]
        assert [
            m.recv_id for m in ext.message_edges if m.send_id == send.node_id
        ] == [recv.node_id]

    def test_message_edge_rejects_wrong_kinds(self):
        cfg = build_cfg(jacobi())
        ext = ExtendedCFG(cfg)
        with pytest.raises(CFGError):
            ext.add_message_edge(cfg.entry_id, cfg.recv_nodes()[0].node_id)
        with pytest.raises(CFGError):
            ext.add_message_edge(cfg.send_nodes()[0].node_id, cfg.exit_id)

    def test_message_edge_idempotent(self):
        cfg = build_cfg(jacobi())
        ext = ExtendedCFG(cfg)
        send, recv = cfg.send_nodes()[0], cfg.recv_nodes()[0]
        ext.add_message_edge(send.node_id, recv.node_id)
        ext.add_message_edge(send.node_id, recv.node_id)
        assert len(ext.message_edges) == 1

    def test_find_path_through_message_edge(self):
        cfg = build_cfg(jacobi_odd_even())
        ext = ExtendedCFG(cfg)
        # even branch: checkpoint, send, recv / odd: recv, send, checkpoint
        sends = cfg.send_nodes()
        recvs = cfg.recv_nodes()
        ext.add_message_edge(sends[0].node_id, recvs[1].node_id)
        checkpoints = cfg.checkpoint_nodes()
        path = ext.find_path(checkpoints[0].node_id, checkpoints[1].node_id)
        assert path is not None
        assert path[0] == checkpoints[0].node_id
        assert path[-1] == checkpoints[1].node_id

    def test_find_path_respects_excluded_edges(self):
        cfg = build_cfg(body("while i < 2:\n    checkpoint\n    i = i + 1"))
        from repro.cfg.dominators import find_back_edges

        back = [(e.src, e.dst) for e in find_back_edges(cfg)]
        ext = ExtendedCFG(cfg)
        checkpoint = cfg.checkpoint_nodes()[0]
        # Self-path exists only through the back edge.
        assert ext.find_path(checkpoint.node_id, checkpoint.node_id) is not None
        assert (
            ext.find_path(
                checkpoint.node_id, checkpoint.node_id, exclude_back_edges=back
            )
            is None
        )

    def test_find_path_none_when_unreachable(self):
        cfg = build_cfg(jacobi())
        ext = ExtendedCFG(cfg)
        assert ext.find_path(cfg.exit_id, cfg.entry_id) is None

    def test_path_edges_are_real(self):
        cfg = build_cfg(jacobi_odd_even())
        ext = ExtendedCFG(cfg)
        path = ext.find_path(cfg.entry_id, cfg.exit_id)
        for src, dst in zip(path, path[1:]):
            assert dst in ext.successors(src)
