"""Structural CFG invariants, property-tested over random programs.

These are the well-formedness guarantees every other analysis relies
on; checking them over the generator's program family catches builder
regressions that the targeted tests might miss.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import NodeKind, build_cfg
from repro.cfg.dominators import compute_dominators, find_back_edges
from repro.cfg.paths import acyclic_paths, reachable_from

from ..phases.generator import generate_exchange_program

programs = st.builds(
    generate_exchange_program,
    seed=st.integers(min_value=0, max_value=50_000),
    checkpoint_position=st.sampled_from(["head", "split"]),
)


@settings(max_examples=40, deadline=None)
@given(program=programs)
def test_every_node_reachable_and_reaches_exit(program):
    cfg = build_cfg(program)
    from_entry = reachable_from(cfg, cfg.entry_id)
    assert from_entry == frozenset(n.node_id for n in cfg.nodes())
    # co-reachability: every node reaches exit
    predecessors_closure = set()
    stack = [cfg.exit_id]
    while stack:
        current = stack.pop()
        if current in predecessors_closure:
            continue
        predecessors_closure.add(current)
        stack.extend(cfg.predecessors(current))
    assert predecessors_closure == set(from_entry)


@settings(max_examples=40, deadline=None)
@given(program=programs)
def test_out_degree_bounds(program):
    cfg = build_cfg(program)
    for node in cfg.nodes():
        degree = len(cfg.successors(node.node_id))
        if node.kind is NodeKind.EXIT:
            assert degree == 0
        elif node.kind is NodeKind.BRANCH:
            assert 1 <= degree <= 2
        else:
            assert degree == 1, node


@settings(max_examples=40, deadline=None)
@given(program=programs)
def test_branch_edges_labelled(program):
    cfg = build_cfg(program)
    for node in cfg.nodes_of_kind(NodeKind.BRANCH):
        labels = sorted(e.label for e in cfg.out_edges(node.node_id))
        assert labels in (["false", "true"], ["true"]), labels


@settings(max_examples=40, deadline=None)
@given(program=programs)
def test_back_edges_target_loop_headers(program):
    cfg = build_cfg(program)
    for edge in find_back_edges(cfg):
        assert cfg.node(edge.dst).is_loop_header


@settings(max_examples=30, deadline=None)
@given(program=programs)
def test_dominator_tree_rooted_at_entry(program):
    cfg = build_cfg(program)
    dom = compute_dominators(cfg)
    for node_id, dominators in dom.items():
        assert cfg.entry_id in dominators
        assert node_id in dominators


@settings(max_examples=30, deadline=None)
@given(program=programs)
def test_paths_traverse_real_edges(program):
    cfg = build_cfg(program)
    from repro.cfg.paths import once_through_successors

    succ = once_through_successors(cfg)
    for path in acyclic_paths(cfg):
        for src, dst in zip(path, path[1:]):
            assert dst in succ[src]
