"""The campaign layer: declarative runs, cached transforms, parallel sweeps.

Three cooperating pieces turn the simulator into an execution substrate
for large experiment campaigns:

- :class:`~repro.campaign.spec.ScenarioSpec` — a picklable,
  JSON-round-trippable description of one run (program source,
  protocol, fault plan, transport, seeds, observability flags) with a
  stable content hash; :meth:`~repro.campaign.spec.ScenarioSpec.build`
  turns one into a live engine in any process.
- :class:`~repro.campaign.cache.TransformCache` — a content-addressed
  on-disk cache for :func:`~repro.phases.pipeline.transform`, keyed by
  program hash × cost model × universe × flags, valued by
  printer/parser round-tripped results, with hit/miss counters
  surfaced through :class:`~repro.obs.metrics.MetricsRegistry`.
- :func:`~repro.campaign.executor.run_campaign` /
  :func:`~repro.campaign.executor.run_cells` — a
  ``ProcessPoolExecutor``-backed fan-out whose merged results are
  **byte-identical for any worker count** (timings excepted, and kept
  out of the deterministic artifact by construction).

Two further pieces make the substrate resilient to *its own* faults —
the paper's checkpoint/restart discipline applied to the harness:

- :class:`~repro.campaign.journal.CampaignJournal` — an append-only,
  fsync'd, torn-tail-tolerant JSONL journal of finalised cell
  outcomes, keyed by cell key × content hash, powering
  ``repro campaign --resume`` / ``repro chaos --resume``;
- :class:`~repro.campaign.executor.ExecutorPolicy` /
  :class:`~repro.campaign.executor.ExecutorStats` plus the fault
  injector in :mod:`repro.campaign.faults` — per-cell timeouts,
  bounded retry with backoff, ``BrokenProcessPool`` recovery, poison
  -cell quarantine, and the deterministic crash/hang/raise worker
  shims that make all of it testable.

The chaos harness (``repro chaos --jobs``), the ``repro campaign`` CLI
subcommand and ``repro simulate`` (a one-cell campaign) all run on this
substrate.
"""

from repro.campaign.cache import (
    CACHE_VERSION,
    TransformCache,
    transform_cache_key,
)
from repro.campaign.executor import (
    CampaignResult,
    CellOutcome,
    ExecutorPolicy,
    ExecutorStats,
    resolve_jobs,
    run_campaign,
    run_cells,
)
from repro.campaign.faults import (
    ExecutorFaultPlan,
    InjectedWorkerError,
    WorkerFault,
    draw_executor_faults,
    parse_worker_fault,
)
from repro.campaign.journal import JOURNAL_VERSION, CampaignJournal
from repro.campaign.spec import (
    SPEC_VERSION,
    ScenarioSpec,
    dump_campaign,
    load_campaign,
    quick_campaign,
)

__all__ = [
    "CACHE_VERSION",
    "CampaignJournal",
    "CampaignResult",
    "CellOutcome",
    "ExecutorFaultPlan",
    "ExecutorPolicy",
    "ExecutorStats",
    "InjectedWorkerError",
    "JOURNAL_VERSION",
    "SPEC_VERSION",
    "ScenarioSpec",
    "TransformCache",
    "WorkerFault",
    "draw_executor_faults",
    "dump_campaign",
    "load_campaign",
    "parse_worker_fault",
    "quick_campaign",
    "resolve_jobs",
    "run_campaign",
    "run_cells",
    "transform_cache_key",
]
