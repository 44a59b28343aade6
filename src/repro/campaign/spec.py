"""Declarative scenario descriptions: one cell of a campaign.

A :class:`ScenarioSpec` captures *everything* that determines one
simulation run — program source, system size, parameters, protocol,
fault plan, transport tunables, seeds, and observability flags — as
plain data. Specs are picklable (so the campaign executor can ship
them to worker processes), JSON-round-trippable (so campaigns can live
in files and be replayed byte-identically), and content-hashed (so
results can be cached and cross-checked by identity, in the spirit of
treating a configured run as a compiler artifact keyed by its inputs).

:meth:`ScenarioSpec.build` is the one factory from a spec to an engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass

from repro.errors import SimulationError
from repro.protocols import make_protocol
from repro.runtime.config import RunConfig, RuntimeCosts
from repro.runtime.engine import Simulation
from repro.runtime.failures import FaultPlan
from repro.runtime.transport import TransportConfig

#: Bumped whenever the spec schema changes incompatibly, so stale
#: content hashes (and anything keyed by them) can never collide with
#: new ones.
SPEC_VERSION = 1


@dataclass(frozen=True)
class ScenarioSpec(RunConfig):
    """A picklable, JSON-round-trippable description of one run.

    The run knobs (``seed``, ``storage_replicas``, ``retain_k``,
    ``backend``, ``checkpoint_mode``, …) are the inherited fields of
    :class:`~repro.runtime.config.RunConfig`, documented and validated
    there; all of them are part of the JSON form and of
    :meth:`content_hash` (so cached results record, e.g., which backend
    produced them). The scenario itself adds:

    Attributes:
        label: The cell key — unique within a campaign; used to order
            and merge results deterministically.
        program: MiniMP **source text** (not an AST — source is the
            stable, hashable, processable-anywhere representation).
        n_processes: System size.
        params: Run-time parameter bindings (e.g. ``{"steps": 8}``).
        protocol: Registered protocol name (see
            :func:`repro.protocols.make_protocol`); ``"none"`` runs
            without a protocol.
        period: Checkpoint period for timer-driven protocols.
        fault_plan: Crashes plus storage/network/recovery faults, or
            ``None``.
        observe: Whether the executor attaches an observability bus to
            this cell and returns its JSONL event log.
    """

    label: str
    program: str
    n_processes: int = 4
    params: dict[str, int] = field(default_factory=dict)
    protocol: str = "appl-driven"
    period: float = 10.0
    fault_plan: FaultPlan | None = None
    observe: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.label:
            raise SimulationError("a scenario spec needs a non-empty label")
        if self.n_processes < 1:
            raise SimulationError(
                f"need at least one process, got {self.n_processes}"
            )
        # Everything that only this cell's own shape can rule out fails
        # here, when a campaign file loads, not in each cell at run time.
        make_protocol(self.protocol, self.period)
        if self.fault_plan is not None:
            self.fault_plan.check_targets(
                self.n_processes, self.storage_replicas
            )

    # -- serialisation -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The spec as plain JSON data (inverse of :meth:`from_json_dict`)."""
        return {"version": SPEC_VERSION} | {
            name: _jsonable(getattr(self, name)) for name in _JSON_FIELDS
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict`'s schema.

        Absent keys take the dataclass defaults, so campaign files
        written before a field existed still load.
        """
        unknown = sorted(set(data) - _JSON_FIELDS.keys() - {"version"})
        if unknown:
            raise SimulationError(
                f"bad scenario spec: unknown key(s) {unknown}"
            )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SimulationError(
                f"scenario spec version {version} not supported "
                f"(this build reads version {SPEC_VERSION})"
            )
        try:
            return cls(**{
                name: decode(data[name])
                for name, decode in _JSON_FIELDS.items()
                if name in data
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(
                f"bad scenario spec: {exc!r}"
            ) from exc

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON form, minus the label.

        Two specs with the same hash describe the same run (identical
        program, configuration, faults, and seeds) even if their cell
        labels differ — the identity a result cache or a cross-check
        wants.
        """
        payload = self.to_json_dict()
        payload.pop("label")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- execution ---------------------------------------------------------------

    def build(self, observer=None) -> Simulation:
        """Construct the engine for this spec.

        The program is parsed from its source text, the protocol made by
        name, and the run knobs handed over whole
        (:meth:`~repro.runtime.config.RunConfig.run_knobs`). Everything
        here is picklable, so a spec, unlike a constructed
        ``Simulation``, can be shipped to another process: that is how
        the campaign executor fans cells out to workers.
        """
        from repro.lang.parser import parse

        return Simulation(
            parse(self.program),
            self.n_processes,
            params=dict(self.params) if self.params else None,
            protocol=make_protocol(self.protocol, self.period),
            fault_plan=self.fault_plan,
            observer=observer,
            **self.run_knobs(),
        )


def _optional(decode):
    return lambda value: None if value is None else decode(value)


#: The JSON form, one entry per field in key order (which campaign
#: files are byte-pinned to): field name -> decoder of its JSON value.
_JSON_FIELDS = {
    "label": str,
    "program": str,
    "n_processes": int,
    "params": lambda data: {str(k): int(v) for k, v in (data or {}).items()},
    "protocol": str,
    "period": float,
    "seed": int,
    "base_latency": float,
    "storage_replicas": int,
    "max_storage_retries": int,
    "record_compute_events": bool,
    "max_steps": int,
    "observe": bool,
    "retain_k": _optional(int),
    "backend": str,
    "checkpoint_mode": str,
    "fault_plan": _optional(FaultPlan.from_json_dict),
    "transport": _optional(lambda data: TransportConfig(**data)),
    "costs": _optional(lambda data: RuntimeCosts(**data)),
}


def _jsonable(value):
    """A field value as plain JSON data."""
    if isinstance(value, FaultPlan):
        return value.to_json_dict()
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def load_campaign(text: str) -> list[ScenarioSpec]:
    """Parse a campaign file: a JSON list of specs or ``{"cells": [...]}``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"bad campaign file: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("cells")
    if not isinstance(data, list):
        raise SimulationError(
            'bad campaign file: expected a JSON list of scenario specs '
            'or {"cells": [...]}'
        )
    return [ScenarioSpec.from_json_dict(entry) for entry in data]


def dump_campaign(specs: list[ScenarioSpec]) -> str:
    """Serialise *specs* as a campaign file (inverse of :func:`load_campaign`)."""
    return json.dumps(
        {"cells": [spec.to_json_dict() for spec in specs]}, indent=2
    ) + "\n"


def quick_campaign(steps: int = 6, seed: int = 0) -> list[ScenarioSpec]:
    """The built-in demo campaign behind ``repro campaign @quick``.

    A small workload × protocol matrix (all Phase-III-safe placements)
    that exercises the executor end to end in a few seconds.
    """
    from repro.lang.programs import program_source

    workloads = (("ring_pipeline", 3), ("pingpong", 4), ("token_ring", 3))
    protocols = ("appl-driven", "uncoordinated")
    specs = []
    for name, n_processes in workloads:
        for protocol in protocols:
            specs.append(ScenarioSpec(
                label=f"{name}/{protocol}",
                program=program_source(name),
                n_processes=n_processes,
                params={"steps": steps},
                protocol=protocol,
                period=6.0,
                seed=seed,
            ))
    return specs
