"""``docs/metrics.md``'s span tables name what real runs record.

The tracker table is checked against a ``transform`` run (with and
without a cache hit) and a ``run_campaign`` run with a tracker: every
span name, its parent's name and its field names. The engine table is
checked against the ``span`` events of a faulted, observed simulation.
"""

import re
from pathlib import Path

from repro.campaign import TransformCache, quick_campaign, run_campaign
from repro.lang.programs import ring_pipeline, stencil_1d
from repro.obs import Observability, SpanTracker
from repro.phases.pipeline import transform
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import Simulation
from repro.runtime.failures import FaultPlan, RecoveryFaultEvent, RecoveryFaultKind

METRICS = (
    Path(__file__).resolve().parents[2] / "docs" / "metrics.md"
).read_text()


def _table(heading: str) -> dict[str, tuple[str | None, set[str]]]:
    """``{name: (parent, field names)}`` of the first table under
    *heading*; a table without a parent column reads parent ``None``."""
    section = METRICS.split(heading + "\n", 1)[1].split("\n#", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `")
    ]
    table = {}
    for row in rows:
        name = row[0].strip("`")
        parent = row[1].strip("`") if len(row) == 4 else "—"
        listed = re.sub(r"\([^)]*\)", "", row[-2])
        fields = {
            re.match(r"\s*`(\w+)`", part).group(1)
            for part in listed.split(",") if part.strip()
        }
        table[name] = (None if parent == "—" else parent, fields)
    return table


def _shapes(tracker: SpanTracker) -> dict[str, set]:
    names = {span.span_id: span.name for span in tracker.spans}
    shapes: dict[str, set] = {}
    for span in tracker.spans:
        shapes.setdefault(span.name, set()).add((
            names.get(span.parent_id), frozenset(span.fields),
        ))
    return shapes


def test_tracker_table_matches_transform_and_campaign_runs(tmp_path):
    trackers = [SpanTracker() for _ in range(4)]
    transform(stencil_1d(), force_insertion=True, tracker=trackers[0])
    cache = TransformCache(tmp_path)
    for tracker in trackers[1:3]:  # a miss, then a hit
        transform(stencil_1d(), cache=cache, tracker=tracker)
    run_campaign(quick_campaign()[:2], tracker=trackers[3])
    recorded: dict[str, set] = {}
    for tracker in trackers:
        for name, shapes in _shapes(tracker).items():
            recorded.setdefault(name, set()).update(shapes)
    documented = {
        name: {(parent, frozenset(fields))}
        for name, (parent, fields) in _table("## Spans").items()
    }
    assert recorded == documented


def test_engine_table_matches_the_recovery_span_events():
    obs = Observability()
    Simulation(
        ring_pipeline(), 3, params={"steps": 10},
        protocol=ApplicationDrivenProtocol(),
        fault_plan=FaultPlan(
            crashes=[(19.5, 1)],
            recovery_faults=[RecoveryFaultEvent(
                0, 1, RecoveryFaultKind.CRASH, attempts=1
            )],
        ),
        seed=0, observer=obs.bus,
    ).run()
    recorded = {
        (event.name, frozenset(event.fields))
        for event in obs.events if event.category == "span"
    }
    documented = {
        (name, frozenset(fields))
        for name, (_, fields) in _table("### The engine's span event").items()
    }
    assert recorded == documented
