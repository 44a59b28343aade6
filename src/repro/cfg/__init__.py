"""Control-flow graphs for MiniMP programs.

This package implements the paper's Section 2 graph machinery: CFG
construction from the AST (with explicit ``send``/``recv``/``checkpoint``
nodes, entry/exit nodes, branch and join nodes), dominator computation,
backward-edge and natural-loop identification, and the path queries that
Phases II and III rely on. The *extended* CFG (CFG plus message edges)
is :class:`~repro.cfg.graph.ExtendedCFG`.
"""

from repro.cfg.builder import build_cfg
from repro.cfg.dominators import compute_dominators, find_back_edges, natural_loops
from repro.cfg.dot import to_dot
from repro.cfg.graph import CFG, Edge, ExtendedCFG
from repro.cfg.nodes import CFGNode, NodeKind
from repro.cfg.paths import CheckpointIndexing, index_checkpoints

__all__ = [
    "CFG",
    "CFGNode",
    "CheckpointIndexing",
    "Edge",
    "ExtendedCFG",
    "NodeKind",
    "build_cfg",
    "compute_dominators",
    "find_back_edges",
    "index_checkpoints",
    "natural_loops",
    "to_dot",
]
