"""Content-addressed on-disk cache for the offline transform pipeline.

The paper's pitch is *offline work so runtime is free* — but the
offline tower itself (Phases I–III) was recomputed from scratch on
every :func:`~repro.phases.pipeline.transform` call. This cache treats
a transformed program as a compiler artifact keyed by the identity of
its inputs: **program source × cost model × universe × flags**. The
value is the :class:`~repro.phases.pipeline.TransformResult` serialised
through the language's own printer/parser round-trip (programs are
stored as canonical source, never pickled ASTs), so cache entries are
portable, diffable JSON.

Hit/miss/store counts are kept on the cache (``hits``, ``misses``,
``stores``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.attributes.contradiction import Universe
from repro.cfg.builder import build_cfg
from repro.cfg.paths import index_checkpoints
from repro.errors import ReproError
from repro.lang import ast_nodes as ast
from repro.lang.compile import COMPILER_VERSION
from repro.lang.parser import parse
from repro.lang.printer import to_source
from repro.phases.insertion import CostModel, InsertionPlan
from repro.phases.placement import Move, PlacementResult
from repro.phases.verification import OrderingConstraint, VerificationResult

#: Bumped whenever the entry schema or the transform pipeline changes
#: in a way that invalidates old entries; part of every cache key, so
#: stale entries simply stop being addressable.
CACHE_VERSION = 1


def cache_schema() -> str:
    """The cache's schema identity: entry format x executable form.

    Cached transforms feed the closure compiler downstream, so a
    lowering change (``COMPILER_VERSION`` bump in
    :mod:`repro.lang.compile`) must orphan old entries exactly like a
    ``CACHE_VERSION`` bump does — stale artifacts stop being
    addressable rather than being served against a compiler that would
    execute them differently.
    """
    return f"cache-{CACHE_VERSION}/compiler-{COMPILER_VERSION}"


def transform_cache_key(
    program: ast.Program,
    cost_model: CostModel,
    loop_optimization: bool,
    universe: Universe,
    force_insertion: bool,
) -> str:
    """SHA-256 identity of one ``transform()`` invocation's inputs."""
    material = json.dumps(
        {
            "schema": cache_schema(),
            "program": to_source(program),
            "cost_model": {
                "local_statement": cost_model.local_statement,
                "message_delay": cost_model.message_delay,
                "checkpoint_overhead": cost_model.checkpoint_overhead,
                "failure_rate": cost_model.failure_rate,
                "default_loop_trips": cost_model.default_loop_trips,
                "default_compute": cost_model.default_compute,
                "params": dict(sorted(cost_model.params.items())),
            },
            "universe": list(universe.sizes),
            "loop_optimization": loop_optimization,
            "force_insertion": force_insertion,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


class TransformCache:
    """On-disk map from transform-input identity to transform output.

    One JSON file per entry under *root* (created if needed), named by
    the content hash. A deserialised hit reconstructs the result's
    programs by parsing their stored source (printer → parser
    round-trip) and its report-level summaries (moves, insertion
    counts) exactly, and re-indexes the stored program's checkpoints
    for the verification result; a successful transform has no
    violation witnesses to store.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(
        self,
        program: ast.Program,
        cost_model: CostModel,
        loop_optimization: bool,
        universe: Universe,
        force_insertion: bool,
    ) -> str:
        """The cache key of one transform invocation (see module doc)."""
        return transform_cache_key(
            program, cost_model, loop_optimization, universe, force_insertion
        )

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The cached :class:`TransformResult` for *key*, or ``None``.

        Counts a hit or a miss; unreadable or schema-mismatched entries
        count as misses and are ignored (the subsequent ``put``
        overwrites them).
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
            if entry.get("version") != CACHE_VERSION:
                raise ValueError("cache entry version mismatch")
            result = _entry_to_result(entry)
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result) -> None:
        """Store *result* under *key* (atomic via rename)."""
        entry = _result_to_entry(result)
        path = self._path(key)
        staged = path.with_suffix(".tmp")
        staged.write_text(json.dumps(entry, sort_keys=True) + "\n")
        staged.replace(path)
        self.stores += 1


# ----------------------------------------------------------------------
# Entry (de)serialisation
# ----------------------------------------------------------------------


def _result_to_entry(result) -> dict:
    insertion = result.insertion
    return {
        "version": CACHE_VERSION,
        "program": to_source(result.program),
        "insertion": None if insertion is None else {
            "program": to_source(insertion.program),
            "interval": insertion.interval,
            "inserted": insertion.inserted,
            "balance_added": insertion.balance_added,
            "estimated_cost": insertion.estimated_cost,
        },
        "moves": [
            [move.description, move.index]
            for move in result.placement.moves
        ],
        "ordering_constraints": [
            [c.earlier, c.later, c.index]
            for c in result.placement.ordering_constraints
        ],
    }


def _entry_to_result(entry: dict):
    from repro.phases.pipeline import TransformResult

    # Liveness is not cached: the result computes it from the
    # reconstructed AST if read. A parse numbers that AST as the cold
    # transform numbered its output, so the two agree on every id.
    program = parse(entry["program"])
    insertion_data = entry["insertion"]
    insertion = None
    if insertion_data is not None:
        insertion = InsertionPlan(
            program=parse(insertion_data["program"]),
            interval=float(insertion_data["interval"]),
            inserted=int(insertion_data["inserted"]),
            balance_added=int(insertion_data["balance_added"]),
            estimated_cost=float(insertion_data["estimated_cost"]),
        )
    verification = VerificationResult(
        ok=True, indexing=index_checkpoints(build_cfg(program))
    )
    placement = PlacementResult(
        program=program,
        moves=tuple(
            Move(description=description, index=int(index))
            for description, index in entry["moves"]
        ),
        verification=verification,
        ordering_constraints=tuple(
            OrderingConstraint(
                earlier=int(earlier), later=int(later), index=int(index)
            )
            for earlier, later, index in entry["ordering_constraints"]
        ),
    )
    return TransformResult(
        program=program,
        insertion=insertion,
        placement=placement,
        verification=verification,
    )
