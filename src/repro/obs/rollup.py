"""Campaign-scale metric rollups: mergeable, deterministic aggregation.

A single run's :class:`~repro.obs.metrics.MetricsRegistry` serialises
to ``{name: {"type": ..., "value"/moments...}}``. A *campaign* runs
hundreds of such cells across worker processes; this module merges
their registries into one aggregate with a **deterministic merge
order** (submission order of the cell keys), so the aggregate — and
the whole deterministic section of ``campaign_metrics.json`` — is
byte-identical for any ``--jobs`` value:

- counters add;
- histograms merge their streaming moments (count/sum/min/max; the
  merge is associative and commutative, so any grouping of cells
  yields the same aggregate — a property the test suite checks);
- gauges are point-in-time readings with no meaningful sum; the
  aggregate keeps ``last`` (in merge order) plus ``min``/``max``
  across cells.

The file layout written by ``repro campaign --metrics-out`` (and the
chaos sweep's ``--metrics-out``)::

    {"rollup_schema_version": 1,
     "aggregate":  {...merged metrics...},          # deterministic
     "per_cell":   {key: {"tags": {...}, "metrics": {...}}},  # deterministic
     "diagnostics": {"jobs", "timings", "workers", "executor"}}  # NOT

Per-cell entries are tagged with the cell key and (for ``name/proto``
labels) the protocol; the worker that ran each cell is wall-clock
territory and lives in ``diagnostics.workers``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.metrics import MetricsCollector, MetricsRegistry

#: Bumped when the campaign_metrics.json layout changes.
ROLLUP_SCHEMA_VERSION = 1


def merge_metric(into: dict | None, metric: dict[str, Any]) -> dict:
    """Merge one metric's JSON form into an accumulator (returned).

    *into* is ``None`` on first sight of the name, else the
    accumulator built so far. Counters/histograms merge by their
    algebra; gauges keep last/min/max. Mixed types for one name raise
    ``ValueError`` — a rollup must not silently add a counter to a
    histogram.
    """
    kind = metric.get("type")
    if into is not None and into.get("type") != kind:
        raise ValueError(
            f"cannot merge metric type {kind!r} into {into.get('type')!r}"
        )
    if kind == "counter":
        if into is None:
            return {"type": "counter", "value": metric["value"]}
        into["value"] += metric["value"]
        return into
    if kind == "gauge":
        value = metric["value"]
        if into is None:
            return {
                "type": "gauge", "value": value, "min": value, "max": value,
            }
        into["value"] = value
        into["min"] = min(into["min"], value)
        into["max"] = max(into["max"], value)
        return into
    if kind == "histogram":
        if into is None:
            merged = {
                "type": "histogram",
                "count": metric["count"],
                "sum": metric["sum"],
                "min": metric["min"],
                "max": metric["max"],
            }
        else:
            merged = into
            merged["count"] += metric["count"]
            merged["sum"] += metric["sum"]
            for key, pick in (("min", min), ("max", max)):
                ours, theirs = merged[key], metric[key]
                if ours is None:
                    merged[key] = theirs
                elif theirs is not None:
                    merged[key] = pick(ours, theirs)
        merged["mean"] = (
            merged["sum"] / merged["count"] if merged["count"] else 0.0
        )
        return merged
    raise ValueError(f"unknown metric type {kind!r}")


def merge_registries(
    registries: Iterable[dict[str, dict]],
) -> dict[str, dict]:
    """Merge metric dicts (``MetricsRegistry.as_dict`` forms) in order.

    The iteration order of *registries* is the merge order; callers
    pass cells in submission order to get the deterministic aggregate.
    Output keys are sorted.
    """
    merged: dict[str, dict] = {}
    for registry in registries:
        for name, metric in registry.items():
            merged[name] = merge_metric(merged.get(name), metric)
    return {name: merged[name] for name in sorted(merged)}


def fold_stats(
    registry: MetricsRegistry, stats: dict | None, errored: bool
) -> dict[str, dict]:
    """Fold a cell's stats dict (as ``stats.*``) and its error flag into
    *registry*; returns the registry's dict form — one cell's metrics."""
    stats = stats or {}
    for name in sorted(stats):
        value = stats[name]
        if isinstance(value, bool):
            registry.counter(f"stats.{name}").inc(int(value))
        elif isinstance(value, int):
            registry.counter(f"stats.{name}").inc(value)
        elif isinstance(value, float):
            registry.gauge(f"stats.{name}").set(value)
    if errored:
        registry.counter("cells_errored").inc()
    return registry.as_dict()


def cell_metrics(outcome) -> dict[str, dict]:
    """Deterministic metrics of one campaign cell outcome.

    The cell's :class:`~repro.runtime.config.SimulationStats` as
    ``stats.*`` counters plus, for an observed cell, the derived set of
    a :class:`~repro.obs.metrics.MetricsCollector` (checkpoint latency,
    retransmit rate, rollback depth, ...). An outcome fresh from its
    worker carries the registry its live log folded into
    (``outcome.metrics``), returned as is; one that arrived as JSON
    (journal, results file) feeds its parsed event log through the same
    fold the live read uses — the definition, and a pure function of the
    cell's deterministic artifact, which is what makes the rollup
    jobs-invariant.
    """
    live = getattr(outcome, "metrics", None)
    if live is not None:
        return live
    registry = MetricsRegistry()
    if outcome.events_jsonl:
        from repro.obs.export import read_event_log

        MetricsCollector(registry).feed(read_event_log(outcome.events_jsonl))
    return fold_stats(
        registry, outcome.stats, getattr(outcome, "error", None) is not None
    )


def _cell_tags(key: str) -> dict[str, str]:
    """Tags of one cell: its key plus the protocol suffix, if labelled
    ``workload/protocol`` (the campaign and chaos naming convention)."""
    tags = {"cell": key}
    if "/" in key:
        tags["protocol"] = key.rsplit("/", 1)[1]
    return tags


def campaign_rollup(result) -> dict[str, Any]:
    """Roll one :class:`~repro.campaign.executor.CampaignResult` up.

    ``aggregate`` and ``per_cell`` are pure functions of the
    deterministic campaign artifact (cells merged in submission
    order); ``diagnostics`` carries the wall-clock side channel
    (timings, jobs, worker pids, executor resilience counters) and is
    the only section allowed to differ between runs.
    """
    per_cell: dict[str, Any] = {}
    for key, outcome in result.cells.items():
        per_cell[str(key)] = {
            "tags": _cell_tags(str(key)),
            "metrics": cell_metrics(outcome),
        }
    aggregate = merge_registries(
        entry["metrics"] for entry in per_cell.values()
    )
    return {
        "rollup_schema_version": ROLLUP_SCHEMA_VERSION,
        "aggregate": aggregate,
        "per_cell": per_cell,
        "diagnostics": {
            "jobs": result.jobs,
            "timings": dict(result.timings),
            "workers": dict(result.workers),
            "executor": (
                None if result.executor is None
                else result.executor.as_dict()
            ),
        },
    }


def rollup_to_json(rollup: dict[str, Any], indent: int | None = 2) -> str:
    """Serialise a rollup (sorted keys, newline-terminated)."""
    return json.dumps(rollup, indent=indent, sort_keys=True) + "\n"
