"""Deterministic input-data provider.

MiniMP's ``input(label)`` models input-dependent ("irregular") values.
For reproducible executions — the system model assumes identical
executions for identical inputs — the provider derives each value
deterministically from ``(seed, label, rank, occurrence)``. Replays
after a rollback therefore see the same inputs as the original run,
and every process — a pool worker, a resumed campaign — sees the same
inputs whatever its ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

_MASK = (1 << 31) - 1
_U64 = (1 << 64) - 1


def _rotl(value: int, bits: int) -> int:
    return (value << bits | value >> (64 - bits)) & _U64


def _sip_round(v0: int, v1: int, v2: int, v3: int) -> tuple:
    v0 = (v0 + v1) & _U64
    v2 = (v2 + v3) & _U64
    v1 = _rotl(v1, 13) ^ v0
    v3 = _rotl(v3, 16) ^ v2
    v0 = _rotl(v0, 32)
    v2 = (v2 + v1) & _U64
    v0 = (v0 + v3) & _U64
    v1 = _rotl(v1, 17) ^ v2
    v3 = _rotl(v3, 21) ^ v0
    return v0, v1, _rotl(v2, 32), v3


@cache
def _label_hash(label: str) -> int:
    """31 bits of *label*'s string hash, the same in every process.

    This is ``hash(label)`` as CPython computes it under
    ``PYTHONHASHSEED=0`` (SipHash-1-3 with the all-zero key over the
    string's fixed-width code units, PEP 456), so the values match what
    such a process always drew, whatever this process's hash seed.
    """
    width = max(map(ord, label), default=0)
    data = label.encode(
        "latin-1" if width < 0x100
        else "utf-16-le" if width < 0x10000
        else "utf-32-le"
    )
    if not data:
        return 0
    v0, v1 = 0x736F6D6570736575, 0x646F72616E646F6D
    v2, v3 = 0x6C7967656E657261, 0x7465646279746573
    whole = len(data) & ~7
    words = [
        int.from_bytes(data[i:i + 8], "little") for i in range(0, whole, 8)
    ]
    last = int.from_bytes(data[whole:], "little")
    words.append((len(data) << 56 | last) & _U64)
    for word in words:
        v3 ^= word
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
        v0 ^= word
    v2 ^= 0xFF
    for _ in range(3):
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    digest = v0 ^ v1 ^ v2 ^ v3
    # CPython reserves -1 (all ones) as an error return and maps it to -2.
    return (digest - (digest == _U64)) & _MASK


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
        return _mix(self.seed, _label_hash(label), rank, occurrence)

    def snapshot(self, rank: int) -> dict[str, int]:
        """The occurrence counters of *rank* (for checkpointing)."""
        return dict(self._counters.get(rank, ()))

    def restore(self, rank: int, counters: dict[str, int]) -> None:
        """Reset *rank*'s counters to a snapshot (for rollback)."""
        self._counters[rank] = dict(counters)
