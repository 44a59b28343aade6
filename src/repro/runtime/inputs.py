"""Deterministic input-data provider.

MiniMP's ``input(label)`` models input-dependent ("irregular") values.
For reproducible executions — the system model assumes identical
executions for identical inputs — the provider derives each value
deterministically from ``(seed, label, rank, occurrence)``. Replays
after a rollback therefore see the same inputs as the original run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_MASK = (1 << 31) - 1


def _mix(*values: int) -> int:
    acc = 0x2545F491
    for value in values:
        acc = (acc ^ (value & _MASK)) * 0x9E3779B1 & _MASK
        acc ^= acc >> 15
    return acc & _MASK


@dataclass
class InputProvider:
    """Deterministic stream of input values per (label, rank).

    The per-(label, rank) occurrence counter lives here, *outside* the
    interpreter state, so a restored process replays the same values it
    saw before the rollback only if the caller also restores the
    counters — :meth:`snapshot`/:meth:`restore` support exactly that.
    Counters are keyed by rank first, so capturing or rewinding one
    rank never visits another rank's labels.
    """

    seed: int = 0
    _counters: dict[int, dict[str, int]] = field(default_factory=dict)

    def value(self, label: str, rank: int) -> int:
        """Next input value for (label, rank); bounded to [0, 2^31)."""
        counters = self._counters.get(rank)
        if counters is None:
            counters = self._counters[rank] = {}
        occurrence = counters.get(label, 0)
        counters[label] = occurrence + 1
        return _mix(self.seed, hash(label) & _MASK, rank, occurrence)

    def snapshot(self, rank: int) -> dict[str, int]:
        """The occurrence counters of *rank* (for checkpointing)."""
        return dict(self._counters.get(rank, ()))

    def restore(self, rank: int, counters: dict[str, int]) -> None:
        """Reset *rank*'s counters to a snapshot (for rollback)."""
        self._counters[rank] = dict(counters)
