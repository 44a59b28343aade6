"""Empirical Lemma 3.1: every communication that actually happens in an
execution corresponds to a message edge Algorithm 3.1 predicted.

The lemma guarantees the true sender is among the matches; here we
check it operationally: simulate a program, pair up each message's
originating send/receive statements (via trace provenance), map them to
CFG nodes, and assert the extended CFG contains that exact message
edge. Run over the shipped programs and both generated families.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.records import EventKind
from repro.cfg.nodes import NodeKind
from repro.lang.programs import default_params, load_program, program_names
from repro.phases.matching import build_extended_cfg
from repro.runtime import Simulation

from .generator import generate_exchange_program, generate_ring_program


def observed_statement_pairs(trace):
    """(send stmt id, recv stmt id) pairs of every delivered message."""
    sends = {
        e.message_id: e for e in trace.events if e.kind is EventKind.SEND
    }
    pairs = set()
    for event in trace.events:
        if event.kind is EventKind.RECV and event.message_id in sends:
            pairs.add((sends[event.message_id].stmt_id, event.stmt_id))
    return pairs


def predicted_statement_pairs(program):
    """(send stmt id, recv stmt id) pairs of the extended CFG's edges."""
    ext = build_extended_cfg(program)
    pairs = set()
    for edge in ext.message_edges:
        send_stmt = ext.cfg.node(edge.send_id).stmt
        recv_stmt = ext.cfg.node(edge.recv_id).stmt
        pairs.add((send_stmt.node_id, recv_stmt.node_id))
    # A collective statement is both endpoints of its own edge.
    return pairs


def assert_observed_subset_of_predicted(program, n, params):
    trace = Simulation(program, n, params=params).run().trace
    observed = observed_statement_pairs(trace)
    predicted = predicted_statement_pairs(program)
    assert observed, "workload exchanged no messages"
    missing = observed - predicted
    assert not missing, f"unpredicted communications: {missing}"


@pytest.mark.parametrize("name", [n for n in program_names()
                                  if n != "jacobi_plain"])
def test_lemma31_on_shipped_programs(name):
    program = load_program(name)
    assert_observed_subset_of_predicted(
        program, 4, default_params(name, steps=3)
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=30_000),
    position=st.sampled_from(["head", "split"]),
)
def test_lemma31_on_exchange_family(seed, position):
    program = generate_exchange_program(seed, checkpoint_position=position)
    assert_observed_subset_of_predicted(program, 4, {"steps": 3})


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=30_000),
    n=st.sampled_from([3, 5]),
)
def test_lemma31_on_ring_family(seed, n):
    program = generate_ring_program(seed, checkpoint_position="head")
    assert_observed_subset_of_predicted(program, n, {"steps": 3})
