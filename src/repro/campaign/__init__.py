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
  printer/parser round-tripped results, with hit/miss/store counters.
- :func:`~repro.campaign.executor.run_campaign` — a
  ``ProcessPoolExecutor``-backed fan-out of spec cells whose merged
  results are **byte-identical for any worker count** (timings
  excepted, and kept out of the deterministic artifact by
  construction).

Two further pieces make the executor resilient to *its own* faults —
the paper's checkpoint/restart discipline applied to the harness:

- :class:`~repro.campaign.journal.CampaignJournal` — an append-only,
  fsync'd, torn-tail-tolerant JSONL journal of finalised cell
  outcomes, keyed by label × content hash, powering
  ``repro campaign --resume`` / ``repro chaos --resume``;
- :class:`~repro.campaign.executor.ExecutorPolicy` /
  :class:`~repro.campaign.executor.ExecutorStats` — per-cell timeouts,
  bounded retry with backoff, ``BrokenProcessPool`` recovery and
  poison-cell quarantine.

The chaos harness (``repro chaos --jobs``), the ``repro campaign`` CLI
subcommand and ``repro simulate`` (a one-cell campaign) all run on
:func:`~repro.campaign.executor.run_campaign`.
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
    "ExecutorPolicy",
    "ExecutorStats",
    "JOURNAL_VERSION",
    "SPEC_VERSION",
    "ScenarioSpec",
    "TransformCache",
    "dump_campaign",
    "load_campaign",
    "quick_campaign",
    "resolve_jobs",
    "run_campaign",
    "transform_cache_key",
]
