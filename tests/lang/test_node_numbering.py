"""A program numbers its own nodes.

Every node's id is its 1-based position in ``ast.walk(program)``,
assigned where the program is born: ``parse``, the MPMD composer,
Phase I and ``transform``. Equal texts therefore number alike in any
process, so id-keyed facts (liveness, event-log ``stmt_id`` fields)
outlive the parse that produced them.
"""

import pytest
from hypothesis import assume, given, settings

from repro.campaign import ScenarioSpec, TransformCache, run_campaign
from repro.errors import MatchingError, PlacementError
from repro.lang import ast_nodes as ast
from repro.lang.mpmd import RankSet, Role, combine_mpmd
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.lang.programs import program_names, program_source
from repro.obs import Observability
from repro.phases.pipeline import transform
from repro.runtime import FaultPlan

from ..attributes.program_strategies import grammar_programs
from .test_mpmd import COORDINATOR_SOURCE, WORKER_SOURCE


def ids(program):
    return [node.node_id for node in ast.walk(program)]


def assert_numbered(program):
    assert ids(program) == list(range(1, len(ids(program)) + 1))


def assert_transforms_number_alike(text):
    """Two transforms of two parses of *text*, with and without Phase I,
    each return a program numbered by its own walk — the same ids."""
    for force_insertion in (False, True):
        first, second = (
            transform(parse(text), force_insertion=force_insertion)
            for _ in range(2)
        )
        assert_numbered(first.program)
        assert ids(first.program) == ids(second.program)
        if force_insertion:
            assert_numbered(first.insertion.program)


@settings(max_examples=60, deadline=None)
@given(program=grammar_programs())
def test_grammar_programs_number_alike(program):
    text = to_source(program)
    first, second = parse(text), parse(text)
    assert_numbered(first)
    assert ids(first) == ids(second)
    try:
        assert_transforms_number_alike(text)
    except (MatchingError, PlacementError):
        assume(False)  # the grammar also draws unmatched programs


@pytest.mark.parametrize("name", program_names())
def test_shipped_programs_number_alike(name):
    text = program_source(name)
    first, second = parse(text), parse(text)
    assert_numbered(first)
    assert ids(first) == ids(second)
    assert_transforms_number_alike(text)


def test_mpmd_composition_numbers_its_roles_as_one_program():
    def compose():
        return combine_mpmd([
            Role(parse(COORDINATOR_SOURCE), RankSet.exact(0)),
            Role(parse(WORKER_SOURCE), RankSet.range(1, 3)),
        ])

    first, second = compose(), compose()
    assert_numbered(first)
    assert ids(first) == ids(second)
    assert_numbered(transform(first).program)


def test_cache_hit_numbers_as_the_cold_transform(tmp_path):
    cache = TransformCache(tmp_path)
    text = program_source("jacobi_plain")
    cold = transform(parse(text), cache=cache)
    hit = transform(parse(text), cache=cache)
    assert cache.hits == 1
    assert ids(hit.program) == ids(cold.program)
    assert ids(hit.insertion.program) == ids(cold.insertion.program)
    assert hit.placement.checkpoint_live == cold.placement.checkpoint_live


def test_campaign_cell_log_is_the_raw_log():
    spec = ScenarioSpec(
        label="ring", program=program_source("ring_pipeline"),
        n_processes=3, params={"steps": 6}, observe=True,
        fault_plan=FaultPlan(crashes=[(12.0, 1)]),
    )
    outcome = run_campaign([spec]).cells["ring"]
    obs = Observability()
    spec.build(observer=obs.bus).run()
    assert any("stmt_id" in event.fields for event in obs.events)
    assert outcome.events_jsonl == obs.jsonl()
