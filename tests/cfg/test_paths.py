"""The path-enumeration oracle and its checkpoint columns (S_i)."""

import pytest

from repro.cfg import build_cfg
from repro.errors import CFGError
from repro.lang.parser import parse
from repro.lang.programs import (
    jacobi,
    jacobi_odd_even,
    jacobi_plain,
    stencil_1d,
)

from .path_enumeration import (
    acyclic_paths,
    checkpoint_columns,
    enumerate_checkpoints,
    find_path,
    once_through_successors,
    reachable_from,
)


def body(statements: str):
    indented = "\n".join("    " + line for line in statements.splitlines())
    return parse(f"program t():\n{indented}\n")


class TestReachability:
    def test_everything_reachable_from_entry(self, any_program):
        cfg = build_cfg(any_program)
        reachable = reachable_from(cfg, cfg.entry_id)
        assert reachable == frozenset(n.node_id for n in cfg.nodes())

    def test_exit_reaches_only_itself(self, any_program):
        cfg = build_cfg(any_program)
        assert reachable_from(cfg, cfg.exit_id) == frozenset({cfg.exit_id})

    def test_find_path_entry_to_exit(self, any_program):
        cfg = build_cfg(any_program)
        path = find_path(cfg, cfg.entry_id, cfg.exit_id)
        assert path is not None
        assert path[0] == cfg.entry_id and path[-1] == cfg.exit_id

    def test_find_path_none_backwards(self, any_program):
        cfg = build_cfg(any_program)
        assert find_path(cfg, cfg.exit_id, cfg.entry_id) is None


class TestOnceThroughDag:
    def test_dag_is_acyclic(self, any_program):
        cfg = build_cfg(any_program)
        succ = once_through_successors(cfg)
        seen: set[int] = set()
        done: set[int] = set()

        def visit(node):
            if node in done:
                return
            assert node not in seen, "cycle in once-through DAG"
            seen.add(node)
            for nxt in succ[node]:
                visit(nxt)
            seen.discard(node)
            done.add(node)

        visit(cfg.entry_id)

    def test_loop_body_is_traversed(self):
        cfg = build_cfg(body("while i < 2:\n    checkpoint\n    i = i + 1"))
        paths = acyclic_paths(cfg)
        checkpoint = cfg.checkpoint_nodes()[0]
        assert all(checkpoint.node_id in p for p in paths)

    def test_no_zero_trip_path(self):
        cfg = build_cfg(body("while i < 2:\n    x = 1\nz = 2"))
        paths = acyclic_paths(cfg)
        x_node = next(n for n in cfg.nodes() if n.label == "x = 1")
        assert all(x_node.node_id in p for p in paths)


class TestAcyclicPaths:
    def test_straight_line_single_path(self):
        cfg = build_cfg(body("a = 1\nb = 2"))
        assert len(acyclic_paths(cfg)) == 1

    def test_if_doubles_paths(self):
        cfg = build_cfg(body("if myrank == 0:\n    a = 1\nelse:\n    b = 2"))
        assert len(acyclic_paths(cfg)) == 2

    def test_sequential_ifs_multiply(self):
        cfg = build_cfg(
            body(
                "if myrank == 0:\n    a = 1\n"
                "if myrank == 1:\n    b = 2\n"
                "if myrank == 2:\n    c = 3"
            )
        )
        assert len(acyclic_paths(cfg)) == 8

    def test_paths_start_and_end_correctly(self, any_program):
        cfg = build_cfg(any_program)
        for path in acyclic_paths(cfg):
            assert path[0] == cfg.entry_id
            assert path[-1] == cfg.exit_id

    def test_limit_guard(self):
        cfg = build_cfg(stencil_1d())
        with pytest.raises(CFGError, match="paths"):
            acyclic_paths(cfg, limit=2)


class TestCheckpointEnumeration:
    def test_jacobi_singleton_column(self):
        enum = enumerate_checkpoints(build_cfg(jacobi()))
        assert enum.balanced
        assert enum.depth == 1
        assert len(enum.columns[0]) == 1

    def test_odd_even_two_member_column(self):
        enum = enumerate_checkpoints(build_cfg(jacobi_odd_even()))
        assert enum.balanced
        assert len(enum.columns[0]) == 2

    def test_plain_program_no_columns(self):
        enum = enumerate_checkpoints(build_cfg(jacobi_plain()))
        assert enum.balanced
        assert enum.depth == 0

    def test_unbalanced_detected(self):
        cfg = build_cfg(
            body("if myrank == 0:\n    checkpoint\nelse:\n    pass")
        )
        enum = enumerate_checkpoints(cfg)
        assert not enum.balanced

    def test_two_checkpoints_in_sequence(self):
        cfg = build_cfg(body("checkpoint\nx = 1\ncheckpoint"))
        enum = enumerate_checkpoints(cfg)
        assert enum.depth == 2
        assert len(enum.columns[0]) == 1
        assert len(enum.columns[1]) == 1
        assert enum.columns[0] != enum.columns[1]

    def test_columns_shorthand(self):
        assert checkpoint_columns(build_cfg(jacobi())) == enumerate_checkpoints(
            build_cfg(jacobi())
        ).columns

    def test_per_path_order_matches_path_order(self):
        cfg = build_cfg(body("checkpoint\nx = 1\ncheckpoint"))
        enum = enumerate_checkpoints(cfg)
        for path, checkpoints in zip(enum.paths, enum.per_path):
            positions = [path.index(c) for c in checkpoints]
            assert positions == sorted(positions)
