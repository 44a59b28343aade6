"""Protocol hook interface.

Checkpointing protocols observe and steer a running simulation through
these hooks. The engine owns time, processes, channels, and storage;
a protocol reacts to hook calls and uses the engine's services
(``send_control``, ``schedule_timer``, ``take_checkpoint``,
``restore_cut``, ``pause``/``resume``) to implement its behaviour.

:class:`NullProtocol` is the do-nothing default — with it, only the
application's own ``checkpoint`` statements create checkpoints, which
is exactly the paper's application-driven setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import Simulation
    from repro.runtime.network import Message


@dataclass(frozen=True)
class ControlMessage:
    """A protocol control message (separate plane from app channels)."""

    src: int
    dst: int
    tag: str
    data: dict[str, int]
    send_time: float
    arrival_time: float


class ProtocolHooks:
    """Base class: every hook is a no-op. Subclass and override.

    A hook called for one rank may act on that rank; to act on another
    it sends a control message or sets a timer, as a real process would
    have to. The engine relies on this: under a protocol whose class
    overrides neither :meth:`on_control` nor :meth:`on_timer` it lets a
    rank execute its local statements ahead of the other ranks.
    """

    name = "null"
    #: The cuts the protocol claims are recovery lines (Definition 2.1):
    #: ``"number"``, straight cuts ``R_i``; ``"tag"``, the checkpoints
    #: sharing a protocol tag (a round, a CIC index; ``initial`` is R_0);
    #: ``None``, none — recovery rests on each rank's own checkpoints.
    recovery_lines: str | None = None

    def on_start(self, sim: "Simulation") -> None:
        """Called once before the first effect executes."""

    def on_app_message(self, sim: "Simulation", rank: int, message: "Message") -> None:
        """Called when *rank* is about to consume an application message.

        Communication-induced protocols take forced checkpoints here —
        the call happens *before* the receive completes.
        """

    def on_control(self, sim: "Simulation", message: ControlMessage) -> None:
        """Called when a control message arrives at its destination."""

    def on_timer(self, sim: "Simulation", rank: int, tag: str, time: float) -> None:
        """Called when a timer scheduled via ``schedule_timer`` fires at *time*."""

    def piggyback(self, sim: "Simulation", rank: int) -> dict[str, int]:
        """Data to attach to an outgoing application message."""
        return {}

    def on_failure(self, sim: "Simulation", rank: int, time: float) -> None:
        """Called when *rank* crashes; must arrange recovery.

        The default performs no recovery — the process stays crashed
        (and the run will usually deadlock), so protocols that expect
        failures must override this.
        """

    def on_checkpoint(self, sim: "Simulation", rank: int, number: int) -> None:
        """Called after any checkpoint of *rank* completes."""


class NullProtocol(ProtocolHooks):
    """Explicit alias for "no protocol behaviour at all"."""

    name = "none"
    #: The paper's setting (only the program checkpoints), so its claim.
    recovery_lines = "number"
