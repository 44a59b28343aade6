"""Hypothesis strategies for MiniMP programs that stress Phase II.

Two families: a small statement grammar (nested and sequential ``if``
chains whose arms may be truly empty, ``while``/``for`` loops (also a
loop ending in a loop), ``bcast``, point-to-point statements with
regular, derived and irregular endpoints, under ID-dependent, neutral,
irregular and mixed conditions), and the library's exchange/ring
generators behind a chain of rank diamonds. Both are kept to a few
dozen once-through paths so the exponential per-path oracle stays
affordable.
"""

from hypothesis import assume
from hypothesis import strategies as st

from repro.cfg.builder import build_cfg
from repro.cfg.paths import once_through
from repro.lang import ast_nodes as ast
from repro.lang.generator import (
    generate_exchange_program,
    generate_ring_program,
)
from repro.lang.parser import parse
from repro.lang.printer import to_source

#: The first eight are ID-dependent (``spin`` is assigned twice, so its
#: branches are ID-dependent yet statically unknown: both arms admit).
CONDITIONS = (
    "myrank % 2 == 0", "myrank % 2 == 1", "myrank % 3 == 0", "myrank == 0",
    "myrank > 0", "spin > 1", "half == 0", "me >= 2",
    "myrank < nprocs - 1", "not myrank % 2", "i < myrank", "i < 2",
    "nprocs > 3", "input(k) > 0", "y > 0", "seen < 1",
    "myrank % 2 == 0 and input(k) > 0", "myrank % 2 == 0 or spin == 1",
)
ENDPOINTS = (
    "myrank + 1", "myrank - 1", "(myrank + 1) % nprocs", "0", "1",
    "nprocs - 1", "me + 1", "input(t) % nprocs", "y", "seen",
)
SIMPLE = (
    "checkpoint", "compute(1)", "x = x + 1", "seen = seen + myrank",
    "y = bcast(0, x)", "y = bcast(myrank % 2, x)",
)
EXCHANGE = (
    "if myrank % 2 == 0:",
    "    send(myrank + 1, x)",
    "    y = recv(myrank + 1)",
    "else:",
    "    y = recv(myrank - 1)",
    "    send(myrank - 1, x)",
)
PRELUDE = (
    "x = init(myrank)", "me = myrank", "half = myrank % 2", "i = 0",
    "seen = 0", "seen = 1", "spin = myrank", "spin = myrank + 1", "y = 0",
)


def _indent(lines):
    return ["    " + line for line in lines]


def _compound(blocks):
    def branch(cond, then, orelse):
        lines = [f"if {cond}:", *_indent(then or ["pass"])]
        if orelse is not None:
            lines += ["else:", *_indent(orelse or ["pass"])]
        return lines

    def loop(head, body):
        # Counter first, so that a body may end in another loop (the
        # inner exit edge is then the outer loop's backward edge).
        return [head, *_indent(["i = i + 1"] + body)]

    heads = st.sampled_from(
        [f"while {cond}:" for cond in CONDITIONS[:6] + ("i < 2",)]
        + ["for k in range(2):"]
    )
    return st.one_of(
        st.builds(branch, st.sampled_from(CONDITIONS), blocks,
                  st.none() | blocks),
        st.builds(loop, heads, blocks),
    )


_leaves = st.one_of(
    st.sampled_from(SIMPLE).map(lambda line: [line]),
    st.sampled_from(ENDPOINTS).map(lambda e: [f"send({e}, x)"]),
    st.sampled_from(ENDPOINTS).map(lambda e: [f"y = recv({e})"]),
    st.just(list(EXCHANGE)),
)
_statements = st.recursive(
    _leaves,
    lambda inner: _compound(
        st.lists(inner, max_size=3).map(lambda ss: sum(ss, []))
    ),
    max_leaves=10,
)


def _strip_pass(block: ast.Block) -> None:
    """Make ``pass``-only ``if`` arms truly empty (parallel CFG edges)."""
    for stmt in block.statements:
        if isinstance(stmt, ast.If):
            for arm in (stmt.then_block, stmt.else_block):
                arm.statements[:] = [
                    s for s in arm.statements if not isinstance(s, ast.Pass)
                ]
                _strip_pass(arm)
        elif isinstance(stmt, (ast.While, ast.For)):
            _strip_pass(stmt.body)


def _few_paths(program: ast.Program, limit: int = 64) -> bool:
    """Keep the exponential oracle affordable: count paths by DP."""
    cfg = build_cfg(program)
    dag = once_through(cfg)
    count = dict.fromkeys(dag.edges, 0)
    count[cfg.entry_id] = 1
    for node_id in dag.order:
        for edge in dag.edges[node_id]:
            count[edge.dst] += count[node_id]
    return count[cfg.exit_id] <= limit


@st.composite
def grammar_programs(draw):
    body = sum(draw(st.lists(_statements, min_size=1, max_size=4)), [])
    program = parse("\n".join(
        ["program g():", *_indent(list(PRELUDE) + body)]
    ) + "\n")
    _strip_pass(program.body)
    assume(_few_paths(program))
    return program


@st.composite
def prefixed_family_programs(draw):
    """An exchange/ring generator draw behind a chain of rank diamonds."""
    make = draw(st.sampled_from(
        [generate_exchange_program, generate_ring_program]
    ))
    lines = to_source(make(draw(st.integers(0, 5000)))).splitlines()
    chain = []
    for _ in range(draw(st.integers(0, 4))):
        chain += [f"    if {draw(st.sampled_from(CONDITIONS[:8]))}:"]
        chain += [f"        {draw(st.sampled_from(['compute(1)', 'pass']))}"]
        chain += ["    else:", "        pass"]
    program = parse("\n".join(
        [lines[0], "    me = myrank", "    half = myrank % 2",
         "    spin = myrank", "    spin = myrank + 1", *chain, *lines[1:]]
    ) + "\n")
    if draw(st.booleans()):
        _strip_pass(program.body)
    assume(_few_paths(program))
    return program


def diamond_chain(diamonds: int, exchange: bool = True) -> str:
    """*diamonds* diamonds on ``myrank % k`` and one even/odd exchange."""
    lines = ["program chain():", "    x = init(myrank)"]
    for index in range(diamonds):
        lines += [
            f"    if myrank % {index % 5 + 2} == 0:",
            f"        x = x + {index}",
            "    else:",
            "        x = x - 1",
        ]
    if exchange:
        lines += [
            "    if myrank % 2 == 0:",
            "        send(myrank + 1, x)",
            "    else:",
            "        y = recv(myrank - 1)",
            "    checkpoint",
        ]
    return "\n".join(lines) + "\n"
