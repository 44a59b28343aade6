"""Property test: print -> parse -> compile preserves the effect stream.

For random generator programs (both skeleton families, both checkpoint
placements), lowering the *reparsed* source through the closure
compiler must produce exactly the effect stream the tree-walking
interpreter yields on the *original* AST — same effects in the same
order with the same payloads, same environment evolution, same
checkpoint count. Going through the printer and parser first is the
point: it proves the compiler keys on program *meaning*, not on the
specific AST objects (the reparsed program shares none of them).

Receives are satisfied with a deterministic synthetic value stream on
both sides (no engine, no network — this isolates the per-process
execution semantics), and every drive is bounded by a step budget so a
miscompiled loop cannot hang the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.compile import compile_program
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.runtime.effects import (
    BcastRecvEffect,
    BcastSendEffect,
    CheckpointEffect,
    ComputeEffect,
    LocalEffect,
    RecvEffect,
    SendEffect,
)
from repro.runtime.interpreter import ProcessInterpreter

from ..phases.generator import (
    generate_exchange_program,
    generate_ring_program,
)

NPROCS = 4
STEP_BUDGET = 600


def effect_signature(effect):
    """An effect as comparable plain data (AST back-references dropped).

    ``SendEffect`` and friends carry their originating AST node; those
    differ by construction across a reparse, so the signature keeps
    only the semantic payload.
    """
    if effect is None:
        return ("finished",)
    if isinstance(effect, LocalEffect):
        return ("local", effect.description)
    if isinstance(effect, ComputeEffect):
        return ("compute", effect.cost)
    if isinstance(effect, SendEffect):
        return ("send", effect.dest, effect.value)
    if isinstance(effect, RecvEffect):
        return ("recv", effect.source, effect.target)
    if isinstance(effect, BcastSendEffect):
        return ("bcast-send", effect.value)
    if isinstance(effect, BcastRecvEffect):
        return ("bcast-recv", effect.root, effect.target)
    if isinstance(effect, CheckpointEffect):
        return ("checkpoint",)
    return (type(effect).__name__,)


def drive(proc):
    """Run one process to completion (or budget), feeding synthetic recvs.

    Returns the full observable history: the effect stream plus the
    environment after every step (so a divergence is caught at the step
    it happens, not just at the end), and the final process state.
    """
    history = []
    synthetic = 1_000  # deterministic value stream for delivered recvs
    for _ in range(STEP_BUDGET):
        effect = proc.step()
        history.append((effect_signature(effect), dict(proc.env)))
        if effect is None:
            break
        if proc.awaiting_delivery:
            synthetic += 1
            proc.deliver(synthetic)
    return (
        tuple(history),
        dict(proc.env),
        proc.checkpoint_count,
        proc.finished,
    )


FAMILIES = {
    "exchange": generate_exchange_program,
    "ring": generate_ring_program,
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    family=st.sampled_from(sorted(FAMILIES)),
    placement=st.sampled_from(("head", "split")),
    rank=st.integers(min_value=0, max_value=NPROCS - 1),
    steps=st.integers(min_value=1, max_value=3),
)
def test_compiled_roundtrip_matches_reference(
    seed, family, placement, rank, steps
):
    original = FAMILIES[family](seed, checkpoint_position=placement)
    reparsed = parse(to_source(original))
    params = {"steps": steps}

    reference = ProcessInterpreter(original, rank, NPROCS, params=dict(params))
    compiled = compile_program(reparsed, NPROCS).bind(rank, params=dict(params))

    assert drive(compiled) == drive(reference)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    family=st.sampled_from(sorted(FAMILIES)),
)
def test_printed_source_is_stable(seed, family):
    """The printer is a fixpoint over generator programs (sanity check:
    the round-trip above tests semantics; this pins the syntax)."""
    source = to_source(FAMILIES[family](seed))
    assert to_source(parse(source)) == source
