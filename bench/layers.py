"""The one table of layer entry points the traced pass calls.

The untraced measurement never touches this module. The traced pass
resolves every layer-specific function from :data:`ENTRY_POINTS`, so a
refactor that moves one (the engine decomposition, the ``RunConfig``
merge, the oracle relocation on the ROADMAP) needs a one-line edit here
— and until that edit lands the affected per-layer metrics read ``null``
with a warning instead of aborting the benchmark.
"""

from __future__ import annotations

import importlib
import sys

ENTRY_POINTS = {
    "load_campaign": "repro.campaign:load_campaign",
    "CellOutcome": "repro.campaign:CellOutcome",
    "CampaignJournal": "repro.campaign:CampaignJournal",
    "TransformCache": "repro.campaign:TransformCache",
    "parse": "repro.lang.parser:parse",
    "to_source": "repro.lang.printer:to_source",
    "walk": "repro.lang.ast_nodes:walk",
    "count_statements": "repro.lang.ast_nodes:count_statements",
    "Checkpoint": "repro.lang.ast_nodes:Checkpoint",
    "compile_program": "repro.lang.compile:compile_program",
    "build_cfg": "repro.cfg.builder:build_cfg",
    "checkpoint_liveness": "repro.attributes.liveness:checkpoint_liveness",
    "CostModel": "repro.phases.insertion:CostModel",
    "Universe": "repro.attributes.contradiction:Universe",
    "insert_checkpoints": "repro.phases.insertion:insert_checkpoints",
    "ensure_recovery_lines": "repro.phases.placement:ensure_recovery_lines",
    "build_extended_cfg": "repro.phases.matching:build_extended_cfg",
    "check_condition1": "repro.phases.verification:check_condition1",
    "TransformResult": "repro.phases.pipeline:TransformResult",
    "CheckpointStore": "repro.runtime.storage:CheckpointStore",
    "ReplicatedCheckpointStore":
        "repro.runtime.storage:ReplicatedCheckpointStore",
    "RetentionPolicy": "repro.runtime.storage:RetentionPolicy",
    "checkpoint_record": "repro.runtime.encoding:checkpoint_record",
    "delta_record": "repro.runtime.encoding:delta_record",
    "encode_record": "repro.runtime.encoding:encode_record",
    "decode_record": "repro.runtime.encoding:decode_record",
    "recovery_lines_consistent":
        "repro.runtime.chaos:storage_recovery_lines_consistent",
    "Observability": "repro.obs:Observability",
    "cell_metrics": "repro.obs.rollup:cell_metrics",
}


class MissingLayer(Exception):
    """An entry point of :data:`ENTRY_POINTS` could not be resolved."""


class Layers:
    """Lazily resolved entry points; a missing one warns once."""

    def __init__(self, table: dict[str, str] = ENTRY_POINTS) -> None:
        self._table = table
        self._resolved: dict[str, object] = {}
        self.missing: set[str] = set()

    def __getattr__(self, name: str):
        if name in self._resolved:
            return self._resolved[name]
        if name not in self._table:
            raise AttributeError(name)
        module_name, _, attribute = self._table[name].partition(":")
        try:
            value = getattr(importlib.import_module(module_name), attribute)
        except (ImportError, AttributeError) as error:
            if name not in self.missing:
                self.missing.add(name)
                print(
                    f"warning: layer entry point {self._table[name]} has "
                    f"moved ({error}); its metrics read null — update "
                    "bench/layers.py",
                    file=sys.stderr,
                )
            raise MissingLayer(name) from error
        self._resolved[name] = value
        return value
