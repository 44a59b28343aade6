"""Canonical MiniMP programs.

This module ships the two programs the paper uses as running examples —
the Jacobi solver of Figure 1 (all processes checkpoint at the same
program point; every straight cut is a recovery line) and the odd/even
variant of Figure 2 (parity-dependent checkpoint placement; straight
cuts are *not* recovery lines) — plus a library of realistic SPMD
workloads used by the examples, tests, and benchmarks.

All pairwise-exchange programs assume an even number of processes; ring
programs work for any ``nprocs >= 2``. Each factory returns a freshly
parsed AST so callers can mutate their copy freely.
"""

from __future__ import annotations

from repro.errors import UnknownProgramError
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse

JACOBI_SOURCE = """\
program jacobi():
    x = init(myrank)
    i = 0
    while i < steps:
        checkpoint
        if myrank % 2 == 0:
            send(myrank + 1, x)
            y = recv(myrank + 1)
        else:
            y = recv(myrank - 1)
            send(myrank - 1, x)
        x = relax(x, y)
        i = i + 1
"""

JACOBI_ODD_EVEN_SOURCE = """\
program jacobi_odd_even():
    x = init(myrank)
    i = 0
    while i < steps:
        if myrank % 2 == 0:
            checkpoint
            send(myrank + 1, x)
            y = recv(myrank + 1)
        else:
            y = recv(myrank - 1)
            send(myrank - 1, x)
            checkpoint
        x = relax(x, y)
        i = i + 1
"""

RING_PIPELINE_SOURCE = """\
program ring_pipeline():
    x = init(myrank)
    i = 0
    while i < steps:
        checkpoint
        if myrank == 0:
            send(1, x)
            y = recv(nprocs - 1)
        else:
            y = recv(myrank - 1)
            send((myrank + 1) % nprocs, combine(x, y))
        x = relax(x, y)
        i = i + 1
"""

RING_UNSAFE_SOURCE = """\
program ring_unsafe():
    x = init(myrank)
    i = 0
    while i < steps:
        if myrank == 0:
            checkpoint
            send(1, x)
            y = recv(nprocs - 1)
        else:
            y = recv(myrank - 1)
            checkpoint
            send((myrank + 1) % nprocs, combine(x, y))
        x = relax(x, y)
        i = i + 1
"""

MASTER_WORKER_SOURCE = """\
program master_worker():
    i = 0
    while i < steps:
        checkpoint
        if myrank == 0:
            task = init(i)
            w = 1
            while w < nprocs:
                send(w, combine(task, w))
                w = w + 1
            w = 1
            while w < nprocs:
                res = recv(w)
                task = combine(task, res)
                w = w + 1
        else:
            job = recv(0)
            compute(5)
            send(0, relax(job, myrank))
        i = i + 1
"""

STENCIL_1D_SOURCE = """\
program stencil_1d():
    x = init(myrank)
    i = 0
    while i < steps:
        checkpoint
        if myrank % 2 == 0:
            if myrank + 1 < nprocs:
                send(myrank + 1, x)
                right = recv(myrank + 1)
                x = combine(x, right)
            if myrank > 0:
                send(myrank - 1, x)
                left = recv(myrank - 1)
                x = combine(x, left)
        else:
            left = recv(myrank - 1)
            send(myrank - 1, x)
            x = combine(x, left)
            if myrank + 1 < nprocs:
                right = recv(myrank + 1)
                send(myrank + 1, x)
                x = combine(x, right)
        compute(3)
        i = i + 1
"""

STENCIL_HALO_SOURCE = """\
program stencil_halo():
    x = init(myrank)
    i = 0
    while i < steps:
        checkpoint
        g0 = relax(x, i)
        g1 = combine(g0, myrank)
        g2 = relax(g1, i)
        g3 = combine(g2, g0)
        g4 = relax(g3, g1)
        g5 = combine(g4, g2)
        g6 = relax(g5, g3)
        g7 = combine(g6, g4)
        g8 = relax(g7, g5)
        g9 = combine(g8, g6)
        g10 = relax(g9, g7)
        g11 = combine(g10, g8)
        g12 = relax(g11, g9)
        g13 = combine(g12, g10)
        g14 = relax(g13, g11)
        g15 = combine(g14, g12)
        if myrank % 2 == 0:
            send(myrank + 1, g15)
            halo = recv(myrank + 1)
        else:
            halo = recv(myrank - 1)
            send(myrank - 1, g15)
        a0 = combine(g15, halo)
        a1 = relax(a0, g0)
        a2 = combine(a1, g1)
        a3 = relax(a2, g2)
        a4 = combine(a3, g3)
        a5 = relax(a4, g4)
        a6 = combine(a5, g5)
        a7 = relax(a6, g6)
        a8 = combine(a7, g7)
        a9 = relax(a8, g8)
        a10 = combine(a9, g9)
        a11 = relax(a10, g10)
        a12 = combine(a11, g11)
        a13 = relax(a12, g12)
        a14 = combine(a13, g13)
        a15 = relax(a14, g14)
        x = combine(a15, i)
        i = i + 1
"""

BROADCAST_REDUCE_SOURCE = """\
program broadcast_reduce():
    acc = init(myrank)
    i = 0
    while i < steps:
        checkpoint
        seed = bcast(0, acc)
        part = relax(seed, myrank)
        if myrank == 0:
            w = 1
            while w < nprocs:
                contrib = recv(w)
                acc = combine(acc, contrib)
                w = w + 1
        else:
            send(0, part)
        i = i + 1
"""

TOKEN_RING_SOURCE = """\
program token_ring():
    i = 0
    while i < steps:
        checkpoint
        if myrank == 0:
            token = init(i)
            send(1, token)
            token = recv(nprocs - 1)
        else:
            token = recv(myrank - 1)
            send((myrank + 1) % nprocs, relax(token, myrank))
        compute(2)
        i = i + 1
"""

IRREGULAR_DISPATCH_SOURCE = """\
program irregular_dispatch():
    i = 0
    while i < steps:
        checkpoint
        if myrank == 0:
            target = input(routing) % (nprocs - 1) + 1
            w = 1
            while w < nprocs:
                send(w, combine(target, w))
                w = w + 1
            w = 1
            while w < nprocs:
                r = recv(w)
                w = w + 1
        else:
            job = recv(0)
            compute(4)
            send(0, relax(job, myrank))
        i = i + 1
"""

PINGPONG_SOURCE = """\
program pingpong():
    x = init(myrank)
    i = 0
    while i < steps:
        checkpoint
        if myrank % 2 == 0:
            send(myrank + 1, x)
            x = recv(myrank + 1)
        else:
            x = recv(myrank - 1)
            send(myrank - 1, relax(x, i))
        i = i + 1
"""

GRID_STENCIL_2D_SOURCE = """\
program grid_stencil_2d():
    x = init(myrank)
    row = myrank / px
    col = myrank % px
    i = 0
    while i < steps:
        checkpoint
        if col % 2 == 0:
            if col + 1 < px:
                send(myrank + 1, x)
                e = recv(myrank + 1)
                x = combine(x, e)
            if col > 0:
                send(myrank - 1, x)
                w = recv(myrank - 1)
                x = combine(x, w)
        else:
            w = recv(myrank - 1)
            send(myrank - 1, x)
            x = combine(x, w)
            if col + 1 < px:
                e = recv(myrank + 1)
                send(myrank + 1, x)
                x = combine(x, e)
        if row % 2 == 0:
            if myrank + px < nprocs:
                send(myrank + px, x)
                s = recv(myrank + px)
                x = combine(x, s)
            if row > 0:
                send(myrank - px, x)
                t = recv(myrank - px)
                x = combine(x, t)
        else:
            t = recv(myrank - px)
            send(myrank - px, x)
            x = combine(x, t)
            if myrank + px < nprocs:
                s = recv(myrank + px)
                send(myrank + px, x)
                x = combine(x, s)
        i = i + 1
"""

TREE_REDUCE_SOURCE = """\
program tree_reduce():
    acc = init(myrank)
    r = 0
    while r < steps:
        checkpoint
        span = 1
        while span < nprocs:
            if myrank % (span * 2) == 0:
                if myrank + span < nprocs:
                    v = recv(myrank + span)
                    acc = combine(acc, v)
            else:
                if myrank % span == 0:
                    send(myrank - span, acc)
            span = span * 2
        seed = bcast(0, acc)
        acc = relax(seed, myrank)
        r = r + 1
"""

UNCHECKPOINTED_JACOBI_SOURCE = """\
program jacobi_plain():
    x = init(myrank)
    i = 0
    while i < steps:
        compute(4)
        if myrank % 2 == 0:
            send(myrank + 1, x)
            y = recv(myrank + 1)
        else:
            y = recv(myrank - 1)
            send(myrank - 1, x)
        x = relax(x, y)
        i = i + 1
"""

_SOURCES: dict[str, str] = {
    "jacobi": JACOBI_SOURCE,
    "jacobi_odd_even": JACOBI_ODD_EVEN_SOURCE,
    "ring_pipeline": RING_PIPELINE_SOURCE,
    "ring_unsafe": RING_UNSAFE_SOURCE,
    "master_worker": MASTER_WORKER_SOURCE,
    "stencil_1d": STENCIL_1D_SOURCE,
    "stencil_halo": STENCIL_HALO_SOURCE,
    "broadcast_reduce": BROADCAST_REDUCE_SOURCE,
    "token_ring": TOKEN_RING_SOURCE,
    "irregular_dispatch": IRREGULAR_DISPATCH_SOURCE,
    "pingpong": PINGPONG_SOURCE,
    "tree_reduce": TREE_REDUCE_SOURCE,
    "grid_stencil_2d": GRID_STENCIL_2D_SOURCE,
    "jacobi_plain": UNCHECKPOINTED_JACOBI_SOURCE,
}


# Extra parameters (besides `steps`) some programs require to run.
def program_names() -> tuple[str, ...]:
    """Names of all shipped programs, in declaration order."""
    return tuple(_SOURCES)


def program_source(name: str) -> str:
    """Return the source text of the shipped program *name*."""
    try:
        return _SOURCES[name]
    except KeyError:
        known = ", ".join(sorted(_SOURCES))
        raise UnknownProgramError(
            f"unknown program {name!r}; known programs: {known}"
        ) from None


def load_program(name: str) -> Program:
    """Parse and return a fresh AST of the shipped program *name*."""
    return parse(program_source(name))


def jacobi() -> Program:
    """The Jacobi solver of paper Figure 1 (safe placement)."""
    return load_program("jacobi")


def jacobi_odd_even() -> Program:
    """The odd/even Jacobi variant of paper Figure 2 (unsafe placement)."""
    return load_program("jacobi_odd_even")


def ring_pipeline() -> Program:
    """A ring pipeline with a safe loop-head checkpoint."""
    return load_program("ring_pipeline")


def ring_unsafe() -> Program:
    """A ring pipeline whose mid-iteration checkpoints break straight cuts."""
    return load_program("ring_unsafe")


def master_worker() -> Program:
    """A master/worker farm: rank 0 scatters tasks and gathers results."""
    return load_program("master_worker")


def stencil_1d() -> Program:
    """A 1-D stencil with boundary handling (rank-range branches)."""
    return load_program("stencil_1d")


def stencil_halo() -> Program:
    """A 1-D stencil whose halo/update pipeline lives in scratch slots.

    The unrolled ``g*``/``a*`` temporaries model a kernel's working set:
    every one is recomputed from ``x`` each iteration before it is read,
    so at the loop-head checkpoint only ``x`` and ``i`` are live. This
    is the workload where application-driven content minimisation pays:
    liveness pruning zeroes the scratch block and delta encoding then
    drops it from the wire entirely.
    """
    return load_program("stencil_halo")


def broadcast_reduce() -> Program:
    """A collective broadcast followed by a gather-style reduction."""
    return load_program("broadcast_reduce")


def token_ring() -> Program:
    """A token circulating around the ring once per iteration."""
    return load_program("token_ring")


def irregular_dispatch() -> Program:
    """A dispatcher whose routing depends on input data (irregular pattern)."""
    return load_program("irregular_dispatch")


def pingpong() -> Program:
    """A two-way ping-pong between rank pairs."""
    return load_program("pingpong")


def tree_reduce() -> Program:
    """A binary-tree reduction per round, redistributed by broadcast.

    The tree levels use loop-carried spans, so the send/receive
    endpoints are statically *irregular* — the workload exercising
    Algorithm 3.1's liberal-matching rule on a realistic collective.
    """
    return load_program("tree_reduce")


def grid_stencil_2d() -> Program:
    """A 2-D stencil on a ``px × py`` grid (pass ``px`` as a parameter).

    Requires even grid dimensions (parity-paired handshakes per
    dimension). The row/column attributes are derived from ``myrank``
    with division and modulo against a run-time parameter, so this
    workload exercises liberal matching under partially-unknown
    endpoint expressions.
    """
    return load_program("grid_stencil_2d")


def jacobi_plain() -> Program:
    """The Jacobi solver with NO checkpoint statements (Phase I input)."""
    return load_program("jacobi_plain")
