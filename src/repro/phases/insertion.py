"""Phase I: static checkpoint insertion (paper §3.1).

Given a program with no (or too few) checkpoint statements, Phase I
inserts them so checkpoint intervals are approximately optimal — the
classic serial-code problem ([8], [22]) applied to a message-passing
program. The differences the paper calls out are both implemented:

- message statements contribute an *estimated network delay* to the
  cost model (the paper estimates delay à la RTT estimation [5, 12]),
  so intervals account for communication time; and
- after insertion, checkpoints are added so that **every path of the
  CFG has the same number of checkpoint nodes** (the balance property
  Phases II/III require).

The cost model walks the AST, accumulating estimated execution time;
whenever the running total crosses the optimal interval ``T* =
sqrt(2 o / λ)`` (Young's solution to the optimal-interval problem), a
checkpoint statement is inserted at the current block boundary. Loop
bodies whose per-iteration cost exceeds the interval get in-body
checkpoints; cheaper loops are treated as single units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.optimal_interval import young_interval
from repro.attributes.expressions import abstract_eval
from repro.errors import InsertionError
from repro.lang import ast_nodes as ast


@dataclass(frozen=True)
class CostModel:
    """Estimated execution-time contributions, in abstract time units.

    ``message_delay`` is the estimated one-way network delay added to
    every send/receive (the paper's Phase I delay estimation);
    ``default_loop_trips`` is used when a loop bound cannot be
    evaluated statically.
    """

    local_statement: float = 1.0
    message_delay: float = 5.0
    checkpoint_overhead: float = 10.0
    failure_rate: float = 0.002
    default_loop_trips: int = 10
    default_compute: float = 4.0
    params: dict[str, int] = field(default_factory=dict)

    def interval(self) -> float:
        """The target optimal checkpoint interval ``T*``."""
        return young_interval(self.checkpoint_overhead, self.failure_rate)


@dataclass
class InsertionPlan:
    """Outcome of Phase I.

    Attributes:
        program: The instrumented program (deep copy of the input).
        interval: The optimal interval targeted.
        inserted: Number of checkpoint statements inserted by the cost
            walk.
        balance_added: Checkpoints added by the balancing pass.
        estimated_cost: The cost model's estimate of one full run.
    """

    program: ast.Program
    interval: float
    inserted: int = 0
    balance_added: int = 0
    estimated_cost: float = 0.0


def insert_checkpoints(
    program: ast.Program, model: CostModel = CostModel()
) -> InsertionPlan:
    """Run Phase I on a copy of *program* and return the plan."""
    working = ast.clone(program)
    interval = model.interval()
    if interval <= 0:
        raise InsertionError(f"non-positive optimal interval {interval!r}")
    walker = _InsertionWalker(model, interval)
    walker.walk_block(working.body)
    balance_added = _balance_block(working.body)
    plan = InsertionPlan(
        program=ast.number_nodes(working),
        interval=interval,
        inserted=walker.inserted,
        balance_added=balance_added,
        estimated_cost=walker.total_cost,
    )
    return plan


class _InsertionWalker:
    """Accumulates cost through blocks, inserting checkpoints on overflow."""

    def __init__(self, model: CostModel, interval: float) -> None:
        self._model = model
        self._interval = interval
        self._since_checkpoint = 0.0
        self.total_cost = 0.0
        self.inserted = 0

    # -- cost estimation ------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> int | None:
        defs = {
            name: ast.Const(value=value)
            for name, value in self._model.params.items()
        }
        return abstract_eval(expr, rank=0, nprocs=4, defs=defs)

    def stmt_cost(self, stmt: ast.Stmt) -> float:
        """Estimated cost of *stmt*, loops multiplied by trip count."""
        model = self._model
        if isinstance(stmt, (ast.Assign, ast.Pass)):
            return model.local_statement
        if isinstance(stmt, ast.Compute):
            value = self._eval(stmt.cost)
            return float(value) if value is not None else model.default_compute
        if isinstance(stmt, (ast.Send, ast.Recv, ast.Bcast)):
            return model.local_statement + model.message_delay
        if isinstance(stmt, ast.Checkpoint):
            return model.checkpoint_overhead
        if isinstance(stmt, ast.If):
            return max(
                self.block_cost(stmt.then_block), self.block_cost(stmt.else_block)
            )
        if isinstance(stmt, (ast.While, ast.For)):
            body = stmt.body
            return self._loop_trips(stmt) * self.block_cost(body)
        raise TypeError(f"unknown statement node: {stmt!r}")

    def block_cost(self, block: ast.Block) -> float:
        return sum(self.stmt_cost(s) for s in block.statements)

    def _loop_trips(self, stmt: ast.While | ast.For) -> int:
        if isinstance(stmt, ast.For):
            value = self._eval(stmt.count)
            if value is not None and value >= 0:
                return value
        if isinstance(stmt, ast.While):
            bound = _while_trip_bound(stmt, self._eval)
            if bound is not None:
                return bound
        return self._model.default_loop_trips

    # -- insertion --------------------------------------------------------------

    def walk_block(self, block: ast.Block) -> None:
        position = 0
        while position < len(block.statements):
            stmt = block.statements[position]
            if isinstance(stmt, ast.Checkpoint):
                self._since_checkpoint = 0.0
                self.total_cost += self._model.checkpoint_overhead
                position += 1
                continue
            if isinstance(stmt, (ast.While, ast.For)):
                trips = self._loop_trips(stmt)
                body_cost = self.block_cost(stmt.body)
                if body_cost >= self._interval:
                    # Expensive body: checkpoint inside the loop.
                    self.walk_block(stmt.body)
                    self.total_cost += trips * self.block_cost(stmt.body)
                    self._since_checkpoint = 0.0
                    position += 1
                    continue
                loop_cost = trips * body_cost
                if (
                    self._since_checkpoint + loop_cost >= self._interval
                    and loop_cost >= self._interval
                ):
                    # The loop as a whole spans several intervals: put a
                    # checkpoint at the body head so each iteration batch
                    # starts from a fresh interval.
                    checkpoint = ast.Checkpoint(line=stmt.line)
                    stmt.body.statements.insert(0, checkpoint)
                    self.inserted += 1
                    self.total_cost += loop_cost
                    self._since_checkpoint = 0.0
                    position += 1
                    continue
                inserted_here = self._advance(loop_cost, block, position)
                position += 1 + inserted_here
                continue
            if isinstance(stmt, ast.If):
                cost = self.stmt_cost(stmt)
                if cost >= self._interval:
                    # An expensive branch deserves checkpoints inside it;
                    # both arms start from the same accumulated interval
                    # and the join conservatively keeps the larger
                    # leftover. The balancing pass evens out the counts.
                    saved = self._since_checkpoint
                    self.walk_block(stmt.then_block)
                    then_after = self._since_checkpoint
                    self._since_checkpoint = saved
                    self.walk_block(stmt.else_block)
                    self._since_checkpoint = max(then_after, self._since_checkpoint)
                    position += 1
                    continue
                inserted_here = self._advance(cost, block, position)
                position += 1 + inserted_here
                continue
            cost = self.stmt_cost(stmt)
            inserted_here = self._advance(cost, block, position)
            position += 1 + inserted_here
        return None

    def _advance(self, cost: float, block: ast.Block, position: int) -> int:
        """Account *cost*; insert a checkpoint before this statement if
        the running interval overflows. Returns 1 if inserted."""
        self.total_cost += cost
        if self._since_checkpoint + cost >= self._interval:
            checkpoint = ast.Checkpoint(line=block.statements[position].line)
            block.statements.insert(position, checkpoint)
            self.inserted += 1
            self.total_cost += self._model.checkpoint_overhead
            self._since_checkpoint = cost
            return 1
        self._since_checkpoint += cost
        return 0


def _while_trip_bound(stmt: ast.While, evaluator) -> int | None:
    """Recognise the idiom ``while i < BOUND`` with ``i = i + 1`` steps."""
    cond = stmt.cond
    if not (isinstance(cond, ast.BinOp) and cond.op in ("<", "<=")):
        return None
    bound = evaluator(cond.right)
    if bound is None or bound < 0:
        return None
    return bound + (1 if cond.op == "<=" else 2)


# ---------------------------------------------------------------------------
# Path balancing
# ---------------------------------------------------------------------------


def _balance_block(block: ast.Block) -> int:
    """Ensure every path through *block* has the same checkpoint count.

    Recursively balances nested constructs, then pads the lighter
    branch of each ``if`` with trailing checkpoints. Returns the number
    of checkpoints added. Loops need no padding at this level because a
    path traverses the body exactly once in the enumeration convention.
    """
    added = 0
    for stmt in block.statements:
        if isinstance(stmt, ast.If):
            added += _balance_block(stmt.then_block)
            added += _balance_block(stmt.else_block)
            then_count = _path_checkpoints(stmt.then_block)
            else_count = _path_checkpoints(stmt.else_block)
            lighter = stmt.else_block if then_count > else_count else stmt.then_block
            for _ in range(abs(then_count - else_count)):
                lighter.statements.append(ast.Checkpoint(line=stmt.line))
                added += 1
        elif isinstance(stmt, (ast.While, ast.For)):
            added += _balance_block(stmt.body)
    return added


def _path_checkpoints(block: ast.Block) -> int:
    """Checkpoint count along any path through *block* (post-balance,
    every path agrees, so taking the then-branch is representative)."""
    count = 0
    for stmt in block.statements:
        if isinstance(stmt, ast.Checkpoint):
            count += 1
        elif isinstance(stmt, ast.If):
            count += _path_checkpoints(stmt.then_block)
        elif isinstance(stmt, (ast.While, ast.For)):
            count += _path_checkpoints(stmt.body)
    return count
