"""Deterministic executor-fault injection: crash/hang/raise worker shims.

The resilient executor (:func:`~repro.campaign.executor.run_cells` with
an :class:`~repro.campaign.executor.ExecutorPolicy`) claims to survive
worker crashes, hangs, and unexpected exceptions. This module makes
that claim testable the same way the simulator's fault layer does: a
declarative, picklable plan of *executor* faults keyed by cell key,
fired by a shim that wraps the worker callable — so the very same fault
fires on the very same cell for any worker count, and a fault sweep is
replayable from its seed alone.

Fault kinds:

- ``crash`` — the worker process dies mid-cell (``os._exit``), which
  surfaces to the parent as a ``BrokenProcessPool``. In-process
  (serial) execution raises a private sentinel that the executor maps
  onto the same "worker crashed" handling, so artifacts stay
  byte-identical across ``jobs`` values.
- ``hang`` — the worker sleeps past any reasonable deadline; the
  parent's per-cell timeout must detect and kill it. In-process
  execution raises the hang sentinel immediately (a serial run cannot
  preempt itself), again converging on the same quarantine text.
- ``raise`` — the worker raises :class:`InjectedWorkerError`, the
  plain-exception failure mode (pool stays alive, cell is retried).

A fault fires while ``attempt <= until_attempt``; a small
``until_attempt`` models a transient fault that succeeds on retry, the
default models a poison cell that must end in quarantine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import SimulationError

#: The executor-fault kinds the shim can fire.
FAULT_KINDS = ("crash", "hang", "raise")

#: ``until_attempt`` value meaning "every attempt" (a poison cell).
ALWAYS = 1_000_000

#: Worker exit code used by injected crashes (diagnosable in core
#: dumps / process tables; never reaches the artifact).
CRASH_EXIT_CODE = 86


class InjectedWorkerError(RuntimeError):
    """The exception an injected ``raise`` fault throws inside a worker.

    Module-level (and carrying only its message) so it pickles cleanly
    across the process-pool boundary back to the parent.
    """


class _InjectedCrash(Exception):
    """In-process stand-in for a worker death (serial execution only)."""


class _InjectedHang(Exception):
    """In-process stand-in for a worker hang (serial execution only)."""


@dataclass(frozen=True)
class WorkerFault:
    """One injected executor fault on one cell.

    Attributes:
        kind: ``crash``, ``hang``, or ``raise`` (see module doc).
        until_attempt: The fault fires while the cell's attempt number
            is ``<= until_attempt``; afterwards the real worker runs.
            The default (:data:`ALWAYS`) makes a poison cell.
        hang_seconds: How long a ``hang`` sleeps in a worker process —
            far past any sane per-cell timeout by default.
    """

    kind: str
    until_attempt: int = ALWAYS
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown executor fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.until_attempt < 1:
            raise SimulationError(
                f"executor fault until_attempt must be >= 1, "
                f"got {self.until_attempt}"
            )

    def fires(self, attempt: int) -> bool:
        """Whether this fault fires on the given (1-based) attempt."""
        return attempt <= self.until_attempt


class ExecutorFaultPlan:
    """A picklable map from cell key to the fault injected on it."""

    def __init__(self, faults: dict | None = None) -> None:
        self.faults = dict(faults or {})

    def for_key(self, key) -> WorkerFault | None:
        """The fault injected on *key*, or ``None``."""
        return self.faults.get(key)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


def draw_executor_faults(
    keys,
    seed: int,
    probability: float = 0.25,
    transient_probability: float = 0.5,
    kinds: tuple[str, ...] = FAULT_KINDS,
) -> ExecutorFaultPlan:
    """Draw a seed-deterministic executor-fault plan over *keys*.

    Each key independently receives a fault with *probability*; a drawn
    fault is transient (clears after one or two attempts) with
    *transient_probability*, else a poison fault that fires forever.
    The same ``(keys, seed)`` always yields the same plan, so a fault
    sweep is replayable — the chaos harness's discipline applied to the
    harness itself.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    faults: dict = {}
    for key in keys:
        if rng.random() >= probability:
            continue
        kind = kinds[int(rng.integers(len(kinds)))]
        if rng.random() < transient_probability:
            until = int(rng.integers(1, 3))
        else:
            until = ALWAYS
        faults[key] = WorkerFault(kind=kind, until_attempt=until)
    return ExecutorFaultPlan(faults)


def parse_worker_fault(text: str) -> tuple[str, WorkerFault]:
    """Parse a CLI fault spec ``KEY:KIND[:UNTIL]`` into ``(key, fault)``.

    ``KEY`` is the cell label (it may itself contain ``/`` but not a
    trailing ``:KIND`` ambiguity — the kind and optional attempt bound
    are read from the right).
    """
    parts = text.split(":")
    if (
        len(parts) >= 3
        and parts[-2] in FAULT_KINDS
        and parts[-1].isdigit()
    ):
        key = ":".join(parts[:-2])
        fault = WorkerFault(kind=parts[-2], until_attempt=int(parts[-1]))
    elif len(parts) >= 2 and parts[-1] in FAULT_KINDS:
        key = ":".join(parts[:-1])
        fault = WorkerFault(kind=parts[-1])
    else:
        kinds = "|".join(FAULT_KINDS)
        raise SimulationError(
            f"executor fault must be KEY:KIND[:UNTIL] with KIND one of "
            f"{kinds}, got {text!r}"
        )
    if not key:
        raise SimulationError(
            f"executor fault needs a non-empty cell key, got {text!r}"
        )
    return key, fault


def fire_fault(fault: WorkerFault, in_process: bool) -> None:
    """Fire *fault* inside a worker (or raise its in-process sentinel).

    Called by the executor's worker shim before the real worker runs.
    In a pool worker (``in_process=False``) a ``crash`` genuinely kills
    the process and a ``hang`` genuinely sleeps; in serial execution
    the private sentinels let the executor reproduce the identical
    retry/quarantine behaviour without killing or blocking itself.
    """
    if fault.kind == "raise":
        raise InjectedWorkerError("injected executor fault: raise")
    if fault.kind == "crash":
        if in_process:
            raise _InjectedCrash()
        os._exit(CRASH_EXIT_CODE)
    # hang
    if in_process:
        raise _InjectedHang()
    time.sleep(fault.hang_seconds)
    raise InjectedWorkerError("injected hang outlived its sleep")
