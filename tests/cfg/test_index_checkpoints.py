"""Tests for the bitmask checkpoint indexing.

:func:`~repro.cfg.paths.index_checkpoints` must agree with the
path-enumeration oracle (:mod:`.path_enumeration`) on depth, balance,
and the ``S_i`` columns for every program, and on an unbalanced one
:func:`~repro.cfg.paths.surplus_checkpoint` must pick the oracle's
first surplus checkpoint.
"""

import pytest

from repro.cfg import CheckpointIndexing, build_cfg, index_checkpoints
from repro.cfg.paths import surplus_checkpoint
from repro.lang.parser import parse
from repro.lang.programs import load_program, program_names

from .branchy import branchy_program
from .path_enumeration import checkpoint_columns, enumerate_checkpoints


def assert_matches_enumeration(cfg):
    indexing = index_checkpoints(cfg)
    enumeration = enumerate_checkpoints(cfg)
    assert indexing.balanced == enumeration.balanced
    assert indexing.path_counts == enumeration.path_counts
    if enumeration.balanced:
        assert indexing.depth == enumeration.depth
        assert indexing.columns == enumeration.columns
    else:
        minimum = enumeration.depth
        first_surplus = next(
            seq[minimum] for seq in enumeration.per_path if len(seq) > minimum
        )
        assert surplus_checkpoint(cfg, minimum) == first_surplus


class TestAgainstEnumeration:
    @pytest.mark.parametrize("name", program_names())
    def test_shipped_programs(self, name):
        assert_matches_enumeration(build_cfg(load_program(name)))

    def test_branchy_program_shape(self):
        enumeration = enumerate_checkpoints(build_cfg(branchy_program(5)))
        assert enumeration.balanced
        assert enumeration.depth == 5
        assert len(enumeration.per_path) == 2**5

    @pytest.mark.parametrize("branches", (1, 3, 6, 10))
    def test_branchy_programs(self, branches):
        assert_matches_enumeration(build_cfg(branchy_program(branches)))

    def test_unbalanced_program(self):
        source = (
            "program unbalanced():\n"
            "    x = init(myrank)\n"
            "    if x % 2 == 0:\n"
            "        checkpoint\n"
            "        x = x + 1\n"
            "    else:\n"
            "        x = x + 2\n"
        )
        cfg = build_cfg(parse(source))
        indexing = index_checkpoints(cfg)
        assert not indexing.balanced
        assert indexing.path_counts == (0, 1)
        assert_matches_enumeration(cfg)

    def test_exponential_input_stays_cheap(self):
        # 2^24 once-through paths: enumeration would blow the limit,
        # the DP decides it exactly.
        indexing = index_checkpoints(build_cfg(branchy_program(24)))
        assert indexing.balanced
        assert indexing.depth == 24
        assert indexing.path_counts == (24,)

    def test_indexing_type(self):
        indexing = index_checkpoints(build_cfg(load_program("jacobi")))
        assert isinstance(indexing, CheckpointIndexing)
        assert indexing.depth == len(indexing.columns)


class TestPathLimitDeprecation:
    def test_no_warning_without_limit(self, recwarn):
        cfg = build_cfg(load_program("jacobi"))
        enumerate_checkpoints(cfg)
        checkpoint_columns(cfg)
        deprecations = [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations == []

    def test_columns_match_indexing(self):
        cfg = build_cfg(load_program("jacobi"))
        assert checkpoint_columns(cfg) == index_checkpoints(cfg).columns
