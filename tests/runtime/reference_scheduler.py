"""The linear-scan scheduler: the differential oracle of the engine's heap.

Before the indexed priority queue, ``Simulation`` chose every step by
scanning each pending bit-rot event, crash, control message, timer and
process and keeping the earliest ``(time, priority)``, first considered
winning ties. That scan is kept here verbatim, as a ``Simulation``
subclass that overrides the index methods of
``repro.runtime.scheduler.Scheduler`` and so switches off everything the
heap enables: the index itself (pushes, re-keying, resyncs) and the run
loop's hot-process batching, which relies on the heap's head being a
lower bound on every other actionable item. Runs must be
byte-identical to the engine's;
``tests/runtime/test_scheduler_differential.py`` and
``tests/runtime/test_run_ahead.py`` hold it to that.
"""

from __future__ import annotations

from repro.runtime.engine import Simulation
from repro.runtime.scheduler import _Status


class ReferenceSchedulerSimulation(Simulation):
    """A :class:`Simulation` that scans for its next item every step."""

    _batch_dispatch = False

    def _next_item(self) -> tuple[float, int, object] | None:
        best: tuple[float, int, object] | None = None

        def consider(time: float, priority: int, payload: object) -> None:
            nonlocal best
            if best is None or (time, priority) < (best[0], best[1]):
                best = (time, priority, payload)

        if self._rot_events:
            # Bit rot sorts ahead of a same-instant crash: the most
            # adversarial interleaving corrupts storage first, so the
            # crash's recovery must already cope with it.
            rot = self._rot_events[0]
            consider(rot.time, -1, rot)
        if self._crashes:
            crash = self._crashes[0]
            consider(crash.time, 0, crash)
        for message in self._control_queue:
            consider(message.arrival_time, 1, message)
        for timer in self._timers:
            consider(timer[0], 2, timer)
        for proc in self.procs:
            if proc.paused:
                continue
            if proc.status is _Status.READY:
                consider(proc.clock, 3, proc)
            elif proc.status is _Status.BLOCKED:
                head = self._awaited_message(proc)
                if head is not None:
                    consider(max(proc.clock, head.arrival_time), 3, proc)
        return best

    # The scan reads the engine's plain state directly: no index to keep.

    def _push(self, *entry) -> None:
        pass

    def _reschedule(self, rank: int) -> None:
        pass

    def _resync(self) -> None:
        pass


#: Engine class per scheduler, production first.
ENGINES = {"indexed": Simulation, "reference": ReferenceSchedulerSimulation}


def scan_every_spec(monkeypatch) -> None:
    """Build every spec's engine as the oracle, for the rest of the test.

    Campaign cells, chaos replays and their fault-free twins construct
    their engines through ``ScenarioSpec.build``.
    """
    from repro.campaign import spec

    monkeypatch.setattr(spec, "Simulation", ReferenceSchedulerSimulation)
