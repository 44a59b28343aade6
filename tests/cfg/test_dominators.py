"""Dominator, backward-edge, and natural-loop tests."""

from repro.cfg import build_cfg
from repro.cfg.dominators import (
    compute_dominators,
    find_back_edges,
    natural_loops,
)
from repro.lang.parser import parse
from repro.lang.programs import jacobi, master_worker


def body(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestDominators:
    def test_entry_dominates_everything(self, any_program):
        cfg = build_cfg(any_program)
        dom = compute_dominators(cfg)
        for node_id in dom:
            assert cfg.entry_id in dom[node_id]

    def test_every_node_dominates_itself(self, any_program):
        cfg = build_cfg(any_program)
        dom = compute_dominators(cfg)
        for node_id in dom:
            assert node_id in dom[node_id]

    def test_straight_line_chain(self):
        cfg = build_cfg(body("a = 1\nb = 2\nc = 3"))
        dom = compute_dominators(cfg)
        path = []
        current = cfg.entry_id
        while True:
            path.append(current)
            succ = cfg.successors(current)
            if not succ:
                break
            current = succ[0]
        for earlier, later in zip(path, path[1:]):
            assert earlier in dom[later]
            assert later not in dom[earlier]

    def test_branch_does_not_dominate_across_arms(self):
        cfg = build_cfg(body("if myrank == 0:\n    a = 1\nelse:\n    b = 2"))
        compute_nodes = [n for n in cfg.nodes() if n.label in ("a = 1", "b = 2")]
        dom = compute_dominators(cfg)
        a, b = compute_nodes
        assert a.node_id not in dom[b.node_id]
        assert b.node_id not in dom[a.node_id]

    def test_join_dominated_by_branch_not_arms(self):
        cfg = build_cfg(body("if myrank == 0:\n    a = 1\nelse:\n    b = 2"))
        from repro.cfg.nodes import NodeKind

        dom = compute_dominators(cfg)
        branch = cfg.nodes_of_kind(NodeKind.BRANCH)[0]
        join = cfg.nodes_of_kind(NodeKind.JOIN)[0]
        assert branch.node_id in dom[join.node_id]


class TestBackEdges:
    def test_while_produces_one_back_edge(self):
        cfg = build_cfg(body("while i < 3:\n    i = i + 1"))
        back = find_back_edges(cfg)
        assert len(back) == 1
        header = back[0].dst
        assert cfg.node(header).is_loop_header

    def test_straight_line_has_no_back_edges(self):
        cfg = build_cfg(body("a = 1\nb = 2"))
        assert find_back_edges(cfg) == []

    def test_nested_loops_back_edge_count(self):
        cfg = build_cfg(
            body("while i < 2:\n    while j < 2:\n        j = j + 1\n    i = i + 1")
        )
        assert len(find_back_edges(cfg)) == 2

    def test_master_worker_three_loops(self):
        cfg = build_cfg(master_worker())
        assert len(find_back_edges(cfg)) == 3

    def test_one_loop_header(self):
        cfg = build_cfg(jacobi())
        headers = {edge.dst for edge in find_back_edges(cfg)}
        assert len(headers) == 1


class TestNaturalLoops:
    def test_loop_contains_header_and_tail(self):
        cfg = build_cfg(body("while i < 3:\n    i = i + 1"))
        loops = natural_loops(cfg)
        assert len(loops) == 1
        edge, nodes = next(iter(loops.items()))
        assert edge.dst in nodes and edge.src in nodes

    def test_loop_excludes_statements_after_loop(self):
        cfg = build_cfg(body("while i < 3:\n    i = i + 1\nz = 9"))
        loops = natural_loops(cfg)
        after = next(n for n in cfg.nodes() if n.label == "z = 9")
        for nodes in loops.values():
            assert after.node_id not in nodes

    def test_inner_loop_nested_in_outer(self):
        cfg = build_cfg(
            body("while i < 2:\n    while j < 2:\n        j = j + 1\n    i = i + 1")
        )
        loops = sorted(natural_loops(cfg).values(), key=len)
        inner, outer = loops
        assert inner < outer  # strict subset

    def test_jacobi_loop_contains_exchange(self):
        cfg = build_cfg(jacobi())
        loops = natural_loops(cfg)
        loop_nodes = next(iter(loops.values()))
        send_ids = {n.node_id for n in cfg.send_nodes()}
        assert send_ids <= loop_nodes
