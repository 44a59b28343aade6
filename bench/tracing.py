"""The traced pass: one extra round, timed layer by layer from outside.

Three parts, all recorded as spans (name, start, end, parent, cell) in
one in-memory list that is written out when the pass ends:

1. a *production* round — :func:`harness.run_round` with a span around
   each step of the ``repro campaign`` call sequence;
2. a *staged* round — every cell carried by hand through the same
   layers' public functions (spec -> [parse -> transform -> print] ->
   construct -> run -> export -> teardown -> outcome encode ->
   [journal] -> [rollup]), one span per stage under one span per cell;
3. *probes* — per cell, after its staged wall has ended: standalone
   calls into layers the stages contain but cannot separate (parser,
   lowering, CFG, liveness) and a replay of the finished run's own
   checkpoints through fresh storage and the encoder.

Per-layer metrics are sums over spans of one name plus counts read at
the same boundaries. ``campaign.executor.self_s`` is *derived*: the
production ``run_campaign`` wall minus the staged construct + run +
export + teardown + journal of the same cells.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import harness
from layers import Layers, MissingLayer

#: Stage spans may leave at most this share of a cell's wall uncovered.
STAGE_GAP_LIMIT = 0.05


class SpanLog:
    """In-memory span list; nothing is written until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None, parent=None):
        record = {
            "id": len(self.spans), "name": name, "cell": cell,
            "parent": parent, "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span["end"] - span["start"]

    def self_time(self, span_id: int) -> float:
        """A span's duration minus the part its child spans cover."""
        span = self.spans[span_id]
        children = sorted(
            (max(s["start"], span["start"]), min(s["end"], span["end"]))
            for s in self.spans if s["parent"] == span_id
        )
        covered = 0.0
        cursor = span["start"]
        for start, end in children:
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
        return span["end"] - span["start"] - covered

    def dump(self, path: Path, **header) -> None:
        """Write the spans, times relative to the first span's start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **header,
            "spans": [
                {**s, "start": s["start"] - origin, "end": s["end"] - origin}
                for s in self.spans
            ],
        }, indent=1) + "\n")


class Tally(dict):
    """Counts keyed by name, plus the metric prefixes of missing layers."""

    def __init__(self) -> None:
        super().__init__()
        self.missing: set[str] = set()

    def add(self, name: str, value) -> None:
        self[name] = self.get(name, 0) + value


def _fresh_copies(storage, ranks) -> list:
    """The run's stored checkpoints as new objects, parents relinked.

    New objects carry none of the lazily cached encoded sizes, so every
    replayed operation pays its cold cost, as the first one in a run.
    """
    copies = {}
    ordered = []
    for rank in ranks:
        for checkpoint in storage.history(rank):
            parent = checkpoint.parent
            # A parent the retention GC already evicted is not replayed;
            # such an entry is replayed as the full checkpoint it
            # reconstructs to.
            if parent is not None and id(parent) not in copies:
                copy = replace(
                    checkpoint, parent=None, payload_kind="full",
                    delta_depth=0,
                )
            else:
                copy = replace(
                    checkpoint,
                    parent=None if parent is None else copies[id(parent)],
                )
            copies[id(checkpoint)] = copy
            ordered.append(copy)
    return ordered


def probe_storage(layers, log, tally, label, spec, result) -> None:
    """Replay the finished run's checkpoints through storage + encoder."""
    try:
        if spec.storage_replicas == 1:
            store = layers.CheckpointStore(spec.max_storage_retries)
        else:
            store = layers.ReplicatedCheckpointStore(
                spec.storage_replicas, spec.max_storage_retries
            )
        policy = layers.RetentionPolicy(2)
    except MissingLayer:
        tally.missing.add("runtime.storage.")
        return
    ranks = list(range(spec.n_processes))
    checkpoints = _fresh_copies(result.storage, ranks)
    with log.span("runtime.storage.store", cell=label):
        for checkpoint in checkpoints:
            store.store(checkpoint)
    with log.span("runtime.storage.account", cell=label):
        stored_bytes = store.total_bytes(incremental=True)
    with log.span("runtime.storage.verify", cell=label):
        for checkpoint in checkpoints:
            store.verify(checkpoint)
    with log.span("runtime.storage.restore_read", cell=label):
        for rank in ranks:
            store.latest_intact(rank)
    tally.add("storage.checkpoints", len(checkpoints))
    tally.add("storage.restore_reads", len(ranks))
    tally.add("storage.stored_bytes", stored_bytes)
    tally.add("storage.full_bytes", store.total_bytes(incremental=False))
    tally.add(
        "storage.delta_entries",
        sum(1 for c in checkpoints if c.payload_kind == "delta"),
    )
    if spec.retain_k is not None:
        # The finished run's store is already within its bound, so the
        # replay collects down to a tighter one to make the policy work.
        with log.span("runtime.storage.retention_collect", cell=label):
            policy.collect(store, ranks)


def probe_encoding(layers, log, tally, label, spec, result) -> None:
    """Encode, delta-encode and decode the run's checkpoints, cold."""
    try:
        record, delta = layers.checkpoint_record, layers.delta_record
        encode, decode = layers.encode_record, layers.decode_record
    except MissingLayer:
        tally.missing.add("runtime.encoding.")
        return
    checkpoints = _fresh_copies(result.storage, range(spec.n_processes))
    with log.span("runtime.encoding.encode", cell=label):
        encoded = [encode(record(c)) for c in checkpoints]
    chained = [c for c in checkpoints if c.parent is not None]
    with log.span("runtime.encoding.delta", cell=label):
        for checkpoint in chained:
            encode(delta(checkpoint, checkpoint.parent))
    with log.span("runtime.encoding.decode", cell=label):
        for data in encoded:
            decode(data)
    tally.add("encoding.checkpoints", len(checkpoints))
    tally.add("encoding.deltas", len(chained))
    tally.add("encoding.bytes", sum(len(data) for data in encoded))


def probe_static(layers, log, tally, label, spec) -> None:
    """Standalone parser, lowering, CFG and liveness on the cell's text."""
    try:
        with log.span("lang.parser.parse", cell=label):
            program = layers.parse(spec.program)
        tally.add("parser.nodes", sum(1 for _ in layers.walk(program)))
    except MissingLayer:
        tally.missing.add("lang.parser.")
        return
    try:
        with log.span("lang.compile.lower", cell=label):
            compiled = layers.compile_program(program, spec.n_processes)
        tally.add(
            "compile.statements", compiled.lowering_stats["instructions"]
        )
    except MissingLayer:
        tally.missing.add("lang.compile.")
    try:
        with log.span("cfg.builder.build", cell=label):
            layers.build_cfg(program)
    except MissingLayer:
        tally.missing.add("cfg.builder.")
    try:
        with log.span("attributes.liveness.analyze", cell=label):
            layers.checkpoint_liveness(program)
    except MissingLayer:
        tally.missing.add("attributes.liveness.")


def staged_transform(layers, log, tally, job, cache, parent) -> str:
    """One transform job through the phase functions, in pipeline order."""
    label = job.label
    with log.span("lang.parser.parse", cell=label, parent=parent):
        program = layers.parse(job.source)
    cost_model, universe = layers.CostModel(), layers.Universe()
    with log.span("campaign.cache.lookup", cell=label, parent=parent):
        key = cache.key_for(program, cost_model, False, universe, False)
        cached = cache.get(key)
    tally.add("cache.lookups", 1)
    if cached is not None:
        tally.add("cache.hits", 1)
        transformed = cached.program
    else:
        insertion = None
        current = program
        if layers.count_statements(program, layers.Checkpoint) == 0:
            with log.span("phases.insertion", cell=label, parent=parent):
                insertion = layers.insert_checkpoints(program, cost_model)
            current = insertion.program
        with log.span("phases.placement", cell=label, parent=parent):
            placement = layers.ensure_recovery_lines(current)
        with log.span("phases.matching", cell=label, parent=parent):
            extended = layers.build_extended_cfg(placement.program)
        with log.span("phases.verification", cell=label, parent=parent):
            verification = layers.check_condition1(
                extended, include_back_edge_paths=True
            )
        verification.raise_if_failed()
        tally.add("placement.moves", len(placement.moves))
        tally.add("matching.message_edges", len(extended.message_edges))
        with log.span("campaign.cache.store", cell=label, parent=parent):
            cache.put(key, layers.TransformResult(
                program=placement.program, insertion=insertion,
                placement=placement, verification=verification,
            ))
        transformed = placement.program
    with log.span("lang.printer.print", cell=label, parent=parent):
        return layers.to_source(transformed)


def staged_cell(layers, log, tally, label, cell_text, parent, journal, rollup):
    """One cell through the production layers by hand; its run result.

    Returns ``(spec, result, observed_wall)``; the last is the construct
    + run + export wall, the numerator of ``obs.observe_wall_ratio``.
    """
    with log.span("campaign.spec.load.cell", cell=label, parent=parent):
        (spec,) = layers.load_campaign(cell_text)
    with log.span("campaign.spec.hash", cell=label, parent=parent):
        spec_hash = spec.content_hash()
    start = time.perf_counter()
    with log.span("runtime.engine.construct", cell=label, parent=parent):
        obs = layers.Observability() if spec.observe else None
        sim = spec.build(observer=None if obs is None else obs.bus)
    with log.span("runtime.engine.run", cell=label, parent=parent):
        result = sim.run()
    events = None
    if obs is not None:
        with log.span("obs.export.jsonl", cell=label, parent=parent):
            events = obs.jsonl()
        tally.add("obs.events", len(obs.events))
        tally.add("obs.jsonl_bytes", len(events))
    # Freeing the engine's object graph is part of what a cell costs;
    # without its own stage it would hide in the gap after the last one.
    with log.span("runtime.engine.teardown", cell=label, parent=parent):
        del sim, obs
    observed_wall = time.perf_counter() - start
    with log.span("campaign.outcome.encode.cell", cell=label, parent=parent):
        outcome = layers.CellOutcome(
            label=label, spec_hash=spec_hash, stats=result.stats.as_dict(),
            final_env={r: dict(e) for r, e in sorted(result.final_env.items())},
            completion_time=result.completion_time, events_jsonl=events,
        )
        encoded = outcome.to_json_dict()
        json.dumps(encoded, indent=2, sort_keys=True)
    if journal is not None:
        with log.span("campaign.journal.record", cell=label, parent=parent):
            journal.record(label, spec_hash, encoded)
        tally.add("journal.records", 1)
    if rollup:
        with log.span("obs.rollup.cell_metrics", cell=label, parent=parent):
            layers.cell_metrics(outcome)
    return spec, result, observed_wall


#: Stage spans the executor's worker covers for one cell; the production
#: ``run_campaign`` wall minus their sum is the executor's own time.
EXECUTOR_COVERED = (
    "runtime.engine.construct", "runtime.engine.run", "obs.export.jsonl",
    "runtime.engine.teardown", "campaign.journal.record",
)


def traced_pass(prepared, tmp: Path, untraced_wall: float, out_path: Path):
    """Run the traced pass; ``(metrics, failed labels, messages, cells)``.

    *untraced_wall* is the median calibrated wall of the untraced rounds
    the traced round is compared with; the span list goes to *out_path*.
    """
    inputs = prepared.inputs
    layers = Layers()
    log = SpanLog()
    tally = Tally()
    failed: set[str] = set()
    messages: list[str] = []

    with log.span("round.production") as production_id:
        production = harness.run_round(
            inputs, tmp / "traced_production",
            span=lambda name: log.span(name, parent=production_id),
        )

    staged_dir = tmp / "traced_staged"
    staged_dir.mkdir()
    cell_entries = json.loads(production.campaign_text)["cells"]
    jobs = {job.label: job for job in inputs.jobs or ()}
    cache = journal = None
    if jobs:
        cache = layers.TransformCache(staged_dir / "transform_cache")
    if inputs.journal:
        journal = layers.CampaignJournal(staged_dir / "journal.jsonl")
    observed_wall = 0.0
    stats = []
    gap_share = 0.0
    # The overhead ratio compares this round with rounds run seconds
    # earlier, so both sides are in calibrated time; every other figure
    # of the traced pass is raw.
    calibrator = harness.Calibrator()
    traced_round = 0.0
    with log.span("round.staged") as staged_id:
        for entry in cell_entries:
            label = entry["label"]
            cell_text = json.dumps({"cells": [entry]})
            cell_start = calibrator.stamp()
            with log.span("cell", cell=label, parent=staged_id) as cell_id:
                if jobs:
                    # The cell's program is whatever the staged transform
                    # prints, dumped to campaign text as the production
                    # job dumps it.
                    program = staged_transform(
                        layers, log, tally, jobs[label], cache, cell_id,
                    )
                    with log.span(
                        "campaign.spec.dump.cell", cell=label, parent=cell_id
                    ):
                        cell_text = json.dumps(
                            {"cells": [{**entry, "program": program}]}
                        )
                spec, result, wall = staged_cell(
                    layers, log, tally, label, cell_text, cell_id,
                    journal, inputs.rollup,
                )
            traced_round += calibrator.between(
                cell_start, calibrator.stamp(force=True)
            )[1]
            gap_share = max(
                gap_share, log.self_time(cell_id) / log.duration(cell_id)
            )
            stats.append(result.stats)
            tally.add("engine.events", len(result.trace.events))
            if not result.stats.completed:
                failed.add(label)
                messages.append(f"{label}: staged run did not complete")
            # Probes: after the cell's wall has ended, never inside it.
            probe_static(layers, log, tally, label, spec)
            probe_storage(layers, log, tally, label, spec, result)
            probe_encoding(layers, log, tally, label, spec, result)
            if spec.fault_plan is not None and spec.fault_plan.crashes:
                try:
                    with log.span(
                        "causality.recovery_line_check", cell=label
                    ):
                        lines_ok = layers.recovery_lines_consistent(
                            result, spec.n_processes
                        )
                    if spec.protocol == "appl-driven" and not lines_ok:
                        failed.add(label)
                        messages.append(
                            f"{label}: a surviving straight cut is not a "
                            "recovery line (Theorem 3.2)"
                        )
                except MissingLayer:
                    tally.missing.add("causality.")
            if spec.observe:
                observed_wall += wall
                with log.span("obs.unobserved_rerun", cell=label):
                    replace(spec, observe=False).build().run()
            # The probes needed the run's trace and storage; freeing them
            # now, under their own span, keeps that cost out of the next
            # cell's wall (production pays it inside the worker).
            with log.span("runtime.engine.teardown", cell=label):
                del result
    if journal is not None:
        journal.close()
        tally.add(
            "journal.bytes", (staged_dir / "journal.jsonl").stat().st_size
        )
    # What one traced round costs: every staged cell's wall plus the
    # round-level writes, taken (raw: they are milliseconds) from the
    # production round. The staged per-cell load, encode and cell_metrics
    # stand in for the production round's whole-campaign
    # ``load_campaign``, ``to_json`` and ``campaign_rollup``.
    traced_round += (
        log.total("campaign.artifact.write") + log.total("obs.rollup.write")
    )
    log.dump(out_path, workload=inputs.workload, seed=inputs.seed)
    if gap_share > STAGE_GAP_LIMIT:
        messages.append(
            f"warning: stage spans leave {gap_share:.1%} of a "
            f"cell's traced wall uncovered (limit {STAGE_GAP_LIMIT:.0%})"
        )
    metrics = layer_metrics(
        log, tally, stats, production, untraced_wall, traced_round,
        gap_share, observed_wall,
    )
    return metrics, failed, messages, len(cell_entries)


def layer_metrics(
    log, tally, stats, production, untraced_wall, traced_round, gap_share,
    observed_wall,
) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``.

    Times are sums over the spans of one name; ``*_per_ckpt`` figures
    divide by the count read at the same boundary; metrics of a layer
    whose entry point has moved read ``None``.
    """
    total = log.total

    def summed(key):
        return sum(getattr(s, key) for s in stats)

    def ratio(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    def count(key):
        return tally.get(key, 0)

    executor = production.result.executor
    checkpoints = count("storage.checkpoints")
    encoded = count("encoding.checkpoints")
    steps = summed("steps")
    frames = summed("frames_sent")
    covered = sum(total(name) for name in EXECUTOR_COVERED)
    values = {
        "campaign.spec.load_s": (total("campaign.spec.load"), "s"),
        "campaign.spec.hash_s": (total("campaign.spec.hash"), "s"),
        "campaign.executor.self_s": (
            total("campaign.executor.run") - covered, "s",
        ),
        "campaign.executor.cells": (len(production.result.cells), "count"),
        "campaign.executor.retries": (
            0 if executor is None else executor.retries, "count",
        ),
        "campaign.journal.record_s": (total("campaign.journal.record"), "s"),
        "campaign.journal.records": (count("journal.records"), "count"),
        "campaign.journal.bytes": (count("journal.bytes"), "B"),
        "campaign.outcome.encode_s": (total("campaign.outcome.encode"), "s"),
        "campaign.artifact.bytes": (production.artifact_bytes, "B"),
        "campaign.cache.lookup_s": (total("campaign.cache.lookup"), "s"),
        "campaign.cache.store_s": (total("campaign.cache.store"), "s"),
        "campaign.cache.hit_share": (
            ratio(count("cache.hits"), count("cache.lookups")), "ratio",
        ),
        "lang.parser.parse_s": (total("lang.parser.parse"), "s"),
        "lang.parser.nodes": (count("parser.nodes"), "count"),
        "lang.printer.print_s": (total("lang.printer.print"), "s"),
        "lang.compile.lower_s": (total("lang.compile.lower"), "s"),
        "lang.compile.statements": (count("compile.statements"), "count"),
        "runtime.engine.construct_s": (
            total("runtime.engine.construct"), "s",
        ),
        "cfg.builder.build_s": (total("cfg.builder.build"), "s"),
        "attributes.liveness.analyze_s": (
            total("attributes.liveness.analyze"), "s",
        ),
        "phases.insertion.s": (total("phases.insertion"), "s"),
        "phases.placement.s": (total("phases.placement"), "s"),
        "phases.matching.s": (total("phases.matching"), "s"),
        "phases.verification.s": (total("phases.verification"), "s"),
        "phases.placement.moves": (count("placement.moves"), "count"),
        "phases.matching.message_edges": (
            count("matching.message_edges"), "count",
        ),
        "runtime.engine.run_s": (total("runtime.engine.run"), "s"),
        "runtime.engine.steps": (steps, "count"),
        "runtime.engine.events": (count("engine.events"), "count"),
        "runtime.engine.run_us_per_step": (
            ratio(total("runtime.engine.run"), steps, 1e6), "us",
        ),
        "runtime.engine.teardown_s": (total("runtime.engine.teardown"), "s"),
        "runtime.engine.recovery_attempts": (
            summed("recovery_attempts"), "count",
        ),
        "runtime.engine.recovery_retries": (
            summed("recovery_retries"), "count",
        ),
        "runtime.engine.rollbacks": (summed("rollbacks"), "count"),
        "runtime.engine.recovery_fallbacks": (
            summed("recovery_fallbacks"), "count",
        ),
        "runtime.engine.lost_work_sim": (summed("lost_work"), "s"),
        "runtime.transport.frames_sent": (frames, "count"),
        "runtime.transport.retransmits": (summed("retransmits"), "count"),
        "runtime.transport.retransmit_share": (
            ratio(summed("retransmits"), frames), "ratio",
        ),
        "runtime.transport.dups_suppressed": (
            summed("dups_suppressed"), "count",
        ),
        "runtime.storage.store_us_per_ckpt": (
            ratio(total("runtime.storage.store"), checkpoints, 1e6), "us",
        ),
        "runtime.storage.account_us_per_ckpt": (
            ratio(total("runtime.storage.account"), checkpoints, 1e6), "us",
        ),
        "runtime.storage.verify_us_per_ckpt": (
            ratio(total("runtime.storage.verify"), checkpoints, 1e6), "us",
        ),
        "runtime.storage.restore_read_us": (
            ratio(
                total("runtime.storage.restore_read"),
                count("storage.restore_reads"), 1e6,
            ), "us",
        ),
        "runtime.storage.retention_collect_s": (
            total("runtime.storage.retention_collect"), "s",
        ),
        "runtime.storage.gc_collected": (summed("gc_collected"), "count"),
        "runtime.storage.stored_bytes": (count("storage.stored_bytes"), "B"),
        "runtime.storage.full_bytes": (count("storage.full_bytes"), "B"),
        "runtime.storage.delta_share": (
            ratio(count("storage.delta_entries"), checkpoints), "ratio",
        ),
        "runtime.encoding.encode_us_per_ckpt": (
            ratio(total("runtime.encoding.encode"), encoded, 1e6), "us",
        ),
        "runtime.encoding.delta_us_per_ckpt": (
            ratio(
                total("runtime.encoding.delta"), count("encoding.deltas"),
                1e6,
            ), "us",
        ),
        "runtime.encoding.decode_us_per_ckpt": (
            ratio(total("runtime.encoding.decode"), encoded, 1e6), "us",
        ),
        "runtime.encoding.bytes_per_ckpt": (
            ratio(count("encoding.bytes"), encoded), "B",
        ),
        "causality.recovery_line_check_s": (
            total("causality.recovery_line_check"), "s",
        ),
        "obs.bus.events": (count("obs.events"), "count"),
        "obs.export.jsonl_s": (total("obs.export.jsonl"), "s"),
        "obs.export.jsonl_bytes": (count("obs.jsonl_bytes"), "B"),
        "obs.rollup.cell_metrics_s": (total("obs.rollup.cell_metrics"), "s"),
        "obs.rollup.campaign_rollup_s": (
            total("obs.rollup.campaign_rollup"), "s",
        ),
        "obs.observe_wall_ratio": (
            ratio(observed_wall, total("obs.unobserved_rerun")) or 1.0,
            "ratio",
        ),
        "bench.stage_gap_share": (gap_share, "ratio"),
        "bench.untraced_round_s": (untraced_wall, "s"),
        "bench.traced_round_s": (traced_round, "s"),
        "bench.trace_overhead_ratio": (traced_round / untraced_wall, "ratio"),
    }
    return {
        name: {
            "value": (
                None if any(name.startswith(p) for p in tally.missing)
                else value
            ),
            "unit": unit,
        }
        for name, (value, unit) in values.items()
    }
