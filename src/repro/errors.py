"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. Subsystems define narrower classes so
that tests and tools can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LanguageError(ReproError):
    """Base class for MiniMP front-end errors."""


class LexerError(LanguageError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownProgramError(LanguageError, KeyError):
    """Raised when no shipped program has the requested name.

    Also a :class:`KeyError` (a lookup that missed), printed as its
    message rather than a key's ``repr``.
    """

    __str__ = LanguageError.__str__


class ParseError(LanguageError):
    """Raised when the parser encounters a malformed program."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class CFGError(ReproError):
    """Raised on malformed control-flow-graph operations."""


class PhaseError(ReproError):
    """Base class for the three offline phases."""


class InsertionError(PhaseError):
    """Raised when Phase I cannot insert balanced checkpoints."""


class MatchingError(PhaseError):
    """Raised when Phase II cannot match a receive with any send."""


class PlacementError(PhaseError):
    """Raised when Phase III cannot establish Condition 1."""


class VerificationError(PhaseError):
    """Raised when the Theorem 3.2 verifier rejects a program."""


class SimulationError(ReproError):
    """Base class for discrete-event-simulator errors."""


class DeadlockError(SimulationError):
    """Raised when every live process is blocked on a receive."""

    def __init__(self, message: str, blocked: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.blocked = blocked


def _context_suffix(pairs: list[tuple[str, object]]) -> str:
    parts = [f"{key}={value}" for key, value in pairs if value is not None]
    return f" ({', '.join(parts)})" if parts else ""


class ChannelError(SimulationError):
    """Raised on invalid channel operations (unknown endpoint, etc.).

    Carries the channel coordinates (``src``, ``dst``, ``lane``) when
    the raise site knows them, so fault-path failures name the exact
    channel instead of forcing a reader to parse the message.
    """

    def __init__(
        self,
        message: str,
        src: int | None = None,
        dst: int | None = None,
        lane: str | None = None,
    ) -> None:
        super().__init__(
            message + _context_suffix([("src", src), ("dst", dst), ("lane", lane)])
        )
        self.src = src
        self.dst = dst
        self.lane = lane


class StorageError(SimulationError):
    """Raised on invalid stable-storage operations.

    Carries the owning ``rank``, the checkpoint ``number``, and (for
    replicated stores) the ``replica`` index when known, so a storage
    fault is debuggable from the exception alone.
    """

    def __init__(
        self,
        message: str,
        rank: int | None = None,
        number: int | None = None,
        replica: int | None = None,
    ) -> None:
        super().__init__(
            message
            + _context_suffix(
                [("rank", rank), ("checkpoint", number), ("replica", replica)]
            )
        )
        self.rank = rank
        self.number = number
        self.replica = replica


class TransientStorageError(StorageError):
    """A retryable I/O error on stable storage (succeeds on retry)."""


class RecoveryError(SimulationError):
    """Raised when rollback/restart cannot produce a consistent state."""


class NestedFailureError(RecoveryError):
    """A rank crashed again while a recovery was rolling back/replaying.

    Retryable: the recovery supervisor aborts the interrupted attempt
    (before any state was mutated) and retries with backoff.
    """


class RecoveryControlError(RecoveryError):
    """Recovery/control-plane traffic was lost mid-recovery.

    Retryable, like :class:`NestedFailureError`: the restart round is
    abandoned and re-driven by the supervisor.
    """


class UnrecoverableError(RecoveryError):
    """Terminal recovery verdict: no intact line remains (or the retry
    budget is exhausted). Carried as a clean verdict — the engine turns
    it into a result with ``stats.unrecoverable`` set, with full stats
    and observability artifacts instead of an unhandled crash.
    """


class AnalysisError(ReproError):
    """Raised by the stochastic performance analysis on bad parameters."""
