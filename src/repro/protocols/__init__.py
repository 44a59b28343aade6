"""Checkpointing protocols.

The paper's taxonomy (§1) as runnable protocol implementations over the
simulator:

- :class:`ApplicationDrivenProtocol` — the paper's contribution: the
  transformed program's own ``checkpoint`` statements do all the work;
  zero control messages, zero forced checkpoints; recovery restores the
  deepest common straight cut.
- :class:`SyncAndStopProtocol` — coordinated; stop the world, everyone
  checkpoints, resume (``5(n-1)`` control messages per round).
- :class:`ChandyLamportProtocol` — coordinated, on-the-fly distributed
  snapshots via markers.
- :class:`UncoordinatedProtocol` — independent periodic checkpoints;
  recovery searches for a consistent cut and can domino.
- :class:`InducedProtocol` — communication-induced (BCS-style index
  piggybacking with forced checkpoints).

Every protocol runs the same workload on the same engine; only
checkpoint triggering, control traffic, and recovery differ, so the
stats are directly comparable.
"""

from repro.errors import SimulationError
from repro.protocols.application_driven import ApplicationDrivenProtocol
from repro.protocols.base import CheckpointingProtocol
from repro.protocols.chandy_lamport import ChandyLamportProtocol
from repro.protocols.induced import InducedProtocol
from repro.protocols.logging_based import MessageLoggingProtocol
from repro.protocols.sync_and_stop import SyncAndStopProtocol
from repro.protocols.uncoordinated import UncoordinatedProtocol

#: The canonical protocol registry: CLI/spec name -> class (or None for
#: "run without any protocol"). ``appl-driven`` takes no period; every
#: timer-driven protocol does.
PROTOCOL_CLASSES: dict[str, type[CheckpointingProtocol] | None] = {
    "none": None,
    "appl-driven": ApplicationDrivenProtocol,
    "sas": SyncAndStopProtocol,
    "cl": ChandyLamportProtocol,
    "uncoordinated": UncoordinatedProtocol,
    "cic": InducedProtocol,
    "msg-logging": MessageLoggingProtocol,
}

#: Every registered protocol that recovers from a crash (all but
#: ``none``), in registry order.
RECOVERING_PROTOCOLS = tuple(
    name for name, cls in PROTOCOL_CLASSES.items() if cls is not None
)


def protocol_names() -> tuple[str, ...]:
    """Every registered protocol name, sorted."""
    return tuple(sorted(PROTOCOL_CLASSES))


def make_protocol(
    name: str, period: float = 10.0
) -> CheckpointingProtocol | None:
    """Instantiate the protocol registered under *name*.

    ``"none"`` returns ``None`` (the engine substitutes its null
    protocol); the application-driven protocol ignores *period*. The
    single factory behind the CLI, the chaos harness, and
    :class:`~repro.campaign.spec.ScenarioSpec`, so all three agree on
    names.
    """
    try:
        cls = PROTOCOL_CLASSES[name]
    except KeyError:
        known = ", ".join(protocol_names())
        raise SimulationError(
            f"unknown protocol {name!r}; known: {known}"
        ) from None
    if cls is None:
        return None
    if cls is ApplicationDrivenProtocol:
        return cls()
    return cls(period=period)


__all__ = [
    "ApplicationDrivenProtocol",
    "ChandyLamportProtocol",
    "CheckpointingProtocol",
    "InducedProtocol",
    "MessageLoggingProtocol",
    "PROTOCOL_CLASSES",
    "RECOVERING_PROTOCOLS",
    "SyncAndStopProtocol",
    "UncoordinatedProtocol",
    "make_protocol",
    "protocol_names",
]
