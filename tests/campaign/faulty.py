"""A faulty worker: the executor's own faults, injected through the one
seam the executor already has — the worker callable it runs.

``run_campaign`` and CLI tests monkeypatch
``repro.campaign.executor._campaign_cell`` with :func:`campaign_cell`
bound to a ``{label: Fault}`` map. Everything here is module-level, so
it pickles into pool workers.

A crash (``os._exit``) or a hang is only survivable in a pool worker
(``jobs >= 2``); a serial run would die or block with it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.campaign.executor import _campaign_cell


class InjectedError(RuntimeError):
    """What a ``raise`` fault throws; module-level, so it pickles."""


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Attributes:
        kind: ``crash`` (the worker process exits), ``hang`` (it sleeps
            past any deadline) or ``raise`` (:class:`InjectedError`).
        marker: A path makes the fault transient: it fires only while
            that file is absent, and creates it when it fires, so the
            retry runs clean — in whichever process it lands.
    """

    kind: str
    marker: str | None = None

    def fire(self) -> None:
        if self.marker is not None:
            if os.path.exists(self.marker):
                return
            Path(self.marker).touch()
        if self.kind == "crash":
            os._exit(86)
        if self.kind == "hang":
            time.sleep(60.0)
        raise InjectedError(f"injected {self.kind}")


def transient(kind: str, tmp_path, name: str = "fired") -> Fault:
    """A fault that fires on the first attempt only."""
    return Fault(kind, str(tmp_path / name))


def _faulty_campaign_cell(faults, spec, judge=None):
    fault = faults.get(spec.label)
    if fault is not None:
        fault.fire()
    return _campaign_cell(spec, judge)


def campaign_cell(faults: dict):
    """A stand-in for ``_campaign_cell`` that fires ``faults[label]``
    before running the real cell."""
    return partial(_faulty_campaign_cell, faults)
