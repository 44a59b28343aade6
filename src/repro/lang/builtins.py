"""Builtin functions callable from MiniMP programs.

Builtins are pure, deterministic integer functions. Determinism matters:
the paper assumes "different executions of the same program are
identical for the same input" (Section 2), and the empirical safety
validation replays programs, so every builtin must be a pure function
of its arguments.

``init``/``combine``/``relax`` stand in for the numerical kernels of the
paper's Jacobi example — the analysis never looks inside them, only at
their cost, so small integer mixers are a faithful substitute.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.errors import SimulationError

MIX_MASK = (1 << 31) - 1
MIX_MULTIPLIER = 0x85EBCA6B


def mixer(start: int, multiplier: int, shift: int) -> Callable[..., int]:
    """A deterministic integer mixer (a small multiply-xorshift hash).

    The mixer xors each value's low 31 bits into its state, multiplies
    by *multiplier* and xor-shifts right by *shift*. The builtin
    kernels, the input stream and the network's latency noise each
    keep their own *start*, *multiplier* and *shift*.
    """

    def mix(*values: int) -> int:
        acc = start
        for value in values:
            acc = (acc ^ (value & MIX_MASK)) * multiplier & MIX_MASK
            acc ^= acc >> shift
        return acc & MIX_MASK

    return mix


_mix = mixer(0x9E3779B9, MIX_MULTIPLIER, 13)


#: Each stand-in kernel mixes its seed, then its arguments.
_SEEDS = {"init": 0x12345678, "combine": 0x5EED, "relax": 0xFACE}

#: The mixing state of each kernel once its seed is mixed in. A fused
#: statement (``repro.lang.compile``) goes on from here with one round
#: of :func:`mixer`'s loop body per argument.
MIX_STATES = {name: _mix(seed) for name, seed in _SEEDS.items()}

BUILTINS: dict[str, Callable[..., int]] = {
    "min": lambda *args: min(args),
    "max": lambda *args: max(args),
    "abs": lambda x: abs(x),
    **{name: partial(_mix, seed) for name, seed in _SEEDS.items()},
}


def call_builtin(name: str, args: list[int]) -> int:
    """Evaluate builtin *name* on integer *args*.

    Raises :class:`~repro.errors.SimulationError` for unknown builtins so
    interpreter failures carry the library's error type.
    """
    try:
        func = BUILTINS[name]
    except KeyError:
        raise SimulationError(f"unknown builtin function {name!r}") from None
    return int(func(*args))
