"""Byte-identity of the transform across the Phase II rewrite.

Golden literals computed at commit 27df55f (per-path matching, one
match per Phase III iteration): for every shipped program and every
``bench/inputs`` text, the sha256 prefix of the transformed source and
of the ``transform_report`` text, and the ``Move`` descriptions in
order. The dataflow match, the single match per transform and Phase IV
running on Phase III's final extended CFG must reproduce all three.
"""

import hashlib
from pathlib import Path

import pytest

from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.lang.programs import program_names, program_source
from repro.phases.pipeline import transform
from repro.phases.report import transform_report

BENCH_INPUTS = Path(__file__).resolve().parents[2] / "bench" / "inputs"

#: label -> (source digest, report digest, move descriptions)
GOLDEN = {
    "shipped/jacobi": (
        "ee413f94e2c75625", "88f26e969f08a61d",
        (),
    ),
    "shipped/jacobi_odd_even": (
        "a509a1d3c23fa589", "bbe16ae0640eebc6",
        (
            "move checkpoint C_1 before line-11 statement",
            "move checkpoint C_1 before line-10 statement",
            "move checkpoint C_1 before line-5 statement",
            "hoist checkpoint before line-5 construct (rebalance)",
        ),
    ),
    "shipped/ring_pipeline": (
        "9c4ce1af7c27c11f", "338569d663067f4c",
        (),
    ),
    "shipped/ring_unsafe": (
        "eab93b3e1513aa89", "80a9b3738595ecb6",
        (
            "move checkpoint C_1 before line-10 statement",
            "move checkpoint C_1 before line-5 statement",
            "hoist checkpoint before line-5 construct (rebalance)",
        ),
    ),
    "shipped/master_worker": (
        "673478c012679e2b", "d605c8487be376f9",
        (),
    ),
    "shipped/stencil_1d": (
        "943ada8da59733e2", "cb2d16fd3d6c1b2d",
        (),
    ),
    "shipped/stencil_halo": (
        "abdb8a96822998cb", "31cac3d53d7d90c2",
        (),
    ),
    "shipped/broadcast_reduce": (
        "8cb9101b678fc036", "61f372b9e7b182f7",
        (),
    ),
    "shipped/token_ring": (
        "1ad909489d55a598", "2a1b46b5ea2ffddc",
        (),
    ),
    "shipped/irregular_dispatch": (
        "148060e1bd515b55", "20173a4c18d595de",
        (),
    ),
    "shipped/pingpong": (
        "341fc28e814b8782", "653022915dc314f5",
        (),
    ),
    "shipped/tree_reduce": (
        "6656fbb81b7b16b4", "46aa51e0129438f5",
        (),
    ),
    "shipped/grid_stencil_2d": (
        "6dfc8bfdfd0c498c", "4c37348f09d4b65d",
        (),
    ),
    "shipped/jacobi_plain": (
        "b574396408ad0c94", "cbce3d72e61d1a2b",
        (),
    ),
    "bench/grid_stencil_2d": (
        "6dfc8bfdfd0c498c", "4c37348f09d4b65d",
        (),
    ),
    "bench/jacobi": (
        "ee413f94e2c75625", "88f26e969f08a61d",
        (),
    ),
    "bench/jacobi_odd_even": (
        "a509a1d3c23fa589", "bbe16ae0640eebc6",
        (
            "move checkpoint C_1 before line-11 statement",
            "move checkpoint C_1 before line-10 statement",
            "move checkpoint C_1 before line-5 statement",
            "hoist checkpoint before line-5 construct (rebalance)",
        ),
    ),
    "bench/jacobi_plain": (
        "b574396408ad0c94", "cbce3d72e61d1a2b",
        (),
    ),
    "bench/ring_pipeline": (
        "9c4ce1af7c27c11f", "338569d663067f4c",
        (),
    ),
    "bench/ring_unsafe": (
        "eab93b3e1513aa89", "80a9b3738595ecb6",
        (
            "move checkpoint C_1 before line-10 statement",
            "move checkpoint C_1 before line-5 statement",
            "hoist checkpoint before line-5 construct (rebalance)",
        ),
    ),
    "bench/stencil_1d": (
        "943ada8da59733e2", "cb2d16fd3d6c1b2d",
        (),
    ),
    "bench/stencil_halo": (
        "abdb8a96822998cb", "31cac3d53d7d90c2",
        (),
    ),
    "bench/token_ring": (
        "1ad909489d55a598", "2a1b46b5ea2ffddc",
        (),
    ),
}


def _text(label: str) -> str:
    family, name = label.split("/")
    if family == "shipped":
        return program_source(name)
    return (BENCH_INPUTS / f"{name}.mp").read_text()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_golden_covers_every_shipped_program_and_bench_input():
    expected = {f"shipped/{name}" for name in program_names()} | {
        f"bench/{path.stem}" for path in BENCH_INPUTS.glob("*.mp")
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_transform_output_is_byte_identical_to_the_parent(label):
    source, report, moves = GOLDEN[label]
    result = transform(parse(_text(label)))
    assert tuple(m.description for m in result.placement.moves) == moves
    assert _digest(to_source(result.program)) == source
    assert _digest(transform_report(result)) == report
