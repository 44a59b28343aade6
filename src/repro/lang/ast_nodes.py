"""Abstract syntax tree for MiniMP.

All nodes are frozen-ish dataclasses (mutable only where the offline
transformation phases need to rewrite statement lists, i.e. ``Block``
bodies). Every node carries its source ``line`` so diagnostics and the
pretty-printer can refer back to the original program.

Expression nodes
    :class:`Const`, :class:`Name`, :class:`MyRank`, :class:`NProcs`,
    :class:`InputData`, :class:`BinOp`, :class:`UnaryOp`, :class:`Call`

Statement nodes
    :class:`Assign`, :class:`Send`, :class:`Recv`, :class:`Bcast`,
    :class:`Checkpoint`, :class:`Compute`, :class:`Pass`, :class:`If`,
    :class:`While`, :class:`For`

A program is a :class:`Program` wrapping a single top-level
:class:`Block` (MiniMP is SPMD: one source file executed by every
process, exactly the setting of the paper's Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


@dataclass
class _Node:
    """Common base: source line plus the node's id within its program.

    A program's ids are its nodes' 1-based pre-order positions
    (:func:`number_nodes`), assigned where the program is born: by the
    parser, the MPMD composer, Phase I and ``transform``. The id lets
    the CFG builder and the phase transformations refer to AST
    statements stably while blocks are rewritten; a node built on its
    own keeps ``0`` until its program is numbered.
    """

    line: int = field(default=0, kw_only=True)
    node_id: int = field(default=0, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Const(_Node):
    """Integer or boolean literal."""

    value: int


@dataclass
class Name(_Node):
    """Reference to a program variable."""

    ident: str


@dataclass
class MyRank(_Node):
    """The executing process's rank (``myrank``)."""


@dataclass
class NProcs(_Node):
    """The number of processes in the system (``nprocs``)."""


@dataclass
class InputData(_Node):
    """An input-dependent value (``input(label)``).

    The paper calls computation patterns that depend on input data
    *irregular*; this node is how MiniMP programs introduce them.
    """

    label: str


@dataclass
class BinOp(_Node):
    """Binary operation. ``op`` is the surface operator token."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(_Node):
    """Unary operation (``-`` or ``not``)."""

    op: str
    operand: Expr


@dataclass
class Call(_Node):
    """Call to a named builtin (e.g. ``min``, ``max``, ``abs``)."""

    func: str
    args: list[Expr]


Expr = Union[Const, Name, MyRank, NProcs, InputData, BinOp, UnaryOp, Call]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Block(_Node):
    """A sequence of statements (a suite)."""

    statements: list[Stmt] = field(default_factory=list)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


@dataclass
class Assign(_Node):
    """``target = expr``."""

    target: str
    value: Expr


@dataclass
class Send(_Node):
    """``send(dest, value)`` — point-to-point, asynchronous."""

    dest: Expr
    value: Expr


@dataclass
class Recv(_Node):
    """``target = recv(source)`` — point-to-point, blocking."""

    target: str
    source: Expr


@dataclass
class Bcast(_Node):
    """``target = bcast(root, value)`` — collective broadcast.

    Every process executes the statement; the process whose rank equals
    *root* supplies *value* and all others receive it, mirroring
    ``MPI_Bcast``. The CFG builder lowers it to send/receive nodes whose
    message edges are trivially matched (paper §3.2, collective case).
    """

    target: str
    root: Expr
    value: Expr


@dataclass
class Checkpoint(_Node):
    """``checkpoint`` — save local process state to stable storage."""


@dataclass
class Compute(_Node):
    """``compute(cost)`` — opaque local work costing *cost* time units."""

    cost: Expr


@dataclass
class Pass(_Node):
    """``pass`` — no-op."""


@dataclass
class If(_Node):
    """``if cond: then_block [else: else_block]``."""

    cond: Expr
    then_block: Block
    else_block: Block


@dataclass
class While(_Node):
    """``while cond: body``."""

    cond: Expr
    body: Block


@dataclass
class For(_Node):
    """``for var in range(count): body`` — a bounded loop."""

    var: str
    count: Expr
    body: Block


Stmt = Union[Assign, Send, Recv, Bcast, Checkpoint, Compute, Pass, If, While, For]


@dataclass
class Program(_Node):
    """A complete MiniMP program: ``program name(): <block>``."""

    name: str
    body: Block


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


#: Each node class's direct children (expressions and blocks), in source
#: order; leaf classes have no entry.
_CHILDREN = {
    Program: lambda n: (n.body,),
    Block: lambda n: n.statements,
    Assign: lambda n: (n.value,),
    Send: lambda n: (n.dest, n.value),
    Recv: lambda n: (n.source,),
    Bcast: lambda n: (n.root, n.value),
    Compute: lambda n: (n.cost,),
    If: lambda n: (n.cond, n.then_block, n.else_block),
    While: lambda n: (n.cond, n.body),
    For: lambda n: (n.count, n.body),
    BinOp: lambda n: (n.left, n.right),
    UnaryOp: lambda n: (n.operand,),
    Call: lambda n: n.args,
}


def children(node: _Node) -> Iterator[_Node]:
    """Yield the direct AST children of *node* (expressions and blocks)."""
    get = _CHILDREN.get(type(node))
    return iter(get(node) if get is not None else ())


def walk(node: _Node) -> Iterator[_Node]:
    """Yield *node* and all its descendants in pre-order.

    A node's children are read only when the walk resumes after yielding
    it, so the consumer may rewrite a ``Block``'s statements as it sees
    the block.
    """
    stack = [node]
    pop, push, table = stack.pop, stack.extend, _CHILDREN
    while stack:
        node = pop()
        yield node
        get = table.get(type(node))
        if get is not None:
            push(reversed(get(node)))


def number_nodes(program: Program) -> Program:
    """Set every node's ``node_id`` to its 1-based position in
    :func:`walk`'s pre-order, so equal texts number alike; returns
    *program*."""
    for position, node in enumerate(walk(program), 1):
        node.node_id = position
    return program


def count_statements(program: Program, kind: type | tuple[type, ...]) -> int:
    """Count statements of the given type(s) anywhere in *program*."""
    return sum(1 for node in walk(program) if isinstance(node, kind))


# ---------------------------------------------------------------------------
# Structural cloning
# ---------------------------------------------------------------------------


def clone(node: _Node) -> _Node:
    """A structural copy of *node*, preserving ``node_id`` and ``line``.

    Drop-in replacement for ``copy.deepcopy`` on ASTs (which are strict
    trees — no aliasing, no cycles — so deepcopy's memo machinery is
    pure overhead): the transformation phases copy whole programs on
    every invocation, and this direct recursive rebuild is an order of
    magnitude faster. Because node ids are preserved, a clone is
    indistinguishable from a deepcopy to the CFG builder, the statement
    indexes, and the pretty-printer.
    """
    try:
        return _CLONERS[type(node)](node)
    except KeyError:
        raise TypeError(f"cannot clone non-AST node {node!r}") from None


def _clone_block(node: Block) -> Block:
    return Block(
        statements=[clone(s) for s in node.statements],
        line=node.line,
        node_id=node.node_id,
    )


_CLONERS = {
    Const: lambda n: Const(value=n.value, line=n.line, node_id=n.node_id),
    Name: lambda n: Name(ident=n.ident, line=n.line, node_id=n.node_id),
    MyRank: lambda n: MyRank(line=n.line, node_id=n.node_id),
    NProcs: lambda n: NProcs(line=n.line, node_id=n.node_id),
    InputData: lambda n: InputData(
        label=n.label, line=n.line, node_id=n.node_id
    ),
    BinOp: lambda n: BinOp(
        op=n.op, left=clone(n.left), right=clone(n.right),
        line=n.line, node_id=n.node_id,
    ),
    UnaryOp: lambda n: UnaryOp(
        op=n.op, operand=clone(n.operand), line=n.line, node_id=n.node_id
    ),
    Call: lambda n: Call(
        func=n.func, args=[clone(a) for a in n.args],
        line=n.line, node_id=n.node_id,
    ),
    Block: _clone_block,
    Assign: lambda n: Assign(
        target=n.target, value=clone(n.value), line=n.line, node_id=n.node_id
    ),
    Send: lambda n: Send(
        dest=clone(n.dest), value=clone(n.value),
        line=n.line, node_id=n.node_id,
    ),
    Recv: lambda n: Recv(
        target=n.target, source=clone(n.source),
        line=n.line, node_id=n.node_id,
    ),
    Bcast: lambda n: Bcast(
        target=n.target, root=clone(n.root), value=clone(n.value),
        line=n.line, node_id=n.node_id,
    ),
    Checkpoint: lambda n: Checkpoint(line=n.line, node_id=n.node_id),
    Compute: lambda n: Compute(
        cost=clone(n.cost), line=n.line, node_id=n.node_id
    ),
    Pass: lambda n: Pass(line=n.line, node_id=n.node_id),
    If: lambda n: If(
        cond=clone(n.cond),
        then_block=_clone_block(n.then_block),
        else_block=_clone_block(n.else_block),
        line=n.line,
        node_id=n.node_id,
    ),
    While: lambda n: While(
        cond=clone(n.cond), body=_clone_block(n.body),
        line=n.line, node_id=n.node_id,
    ),
    For: lambda n: For(
        var=n.var, count=clone(n.count), body=_clone_block(n.body),
        line=n.line, node_id=n.node_id,
    ),
    Program: lambda n: Program(
        name=n.name, body=_clone_block(n.body),
        line=n.line, node_id=n.node_id,
    ),
}
