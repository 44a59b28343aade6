"""Contradiction checking between send and receive attributes.

Algorithm 3.1 matches a receive node with a send node when the
receive's source attribute and the send's destination attribute "do not
present any contradiction". We decide this by exhaustive evaluation
over a finite *universe* of system sizes: the pair is compatible iff
there exist a size ``n`` and ranks ``p`` (sender) and ``q`` (receiver)
such that

- ``p`` can reach the send node and ``q`` the receive node (see
  :mod:`repro.attributes.domain`),
- the send's destination evaluates to ``q`` (or is unknown), and
- the receive's source evaluates to ``p`` (or is unknown).

MiniMP rank predicates are built from modular arithmetic and
comparisons against rank-affine expressions, so their truth patterns
over ranks are periodic with small periods; checking all
``n ∈ {2..17}`` (the default universe) decides satisfiability exactly
for every shipped construct while remaining fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attributes.domain import NodeTable


@dataclass(frozen=True)
class Universe:
    """The finite set of system sizes used for satisfiability checks."""

    sizes: tuple[int, ...] = tuple(range(2, 18))

    def __post_init__(self) -> None:
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError("universe sizes must be positive and non-empty")


@dataclass(frozen=True)
class MatchWitness:
    """A concrete (n, sender, receiver) triple witnessing compatibility."""

    nprocs: int
    sender: int
    receiver: int


def tables_compatible(
    send_rows: NodeTable, recv_rows: NodeTable
) -> MatchWitness | None:
    """Check a send/receive node pair for compatibility.

    Returns the first witness (smallest size, then sender) if some
    system size and rank pair realises the communication, else ``None``
    (the attributes contradict). A pure join of the two nodes'
    precomputed tables (:func:`~repro.attributes.domain.node_tables`).
    """
    for nprocs, senders in send_rows.items():
        receivers = recv_rows.get(nprocs)
        if not receivers:
            continue
        by_receiver = dict(receivers)
        for sender, dest in senders:
            if dest is not None:
                if dest not in by_receiver:
                    continue
                source = by_receiver[dest]
                if source is None or source == sender:
                    return MatchWitness(
                        nprocs=nprocs, sender=sender, receiver=dest
                    )
            else:
                for receiver, source in receivers:
                    if source is None or source == sender:
                        return MatchWitness(
                            nprocs=nprocs, sender=sender, receiver=receiver
                        )
    return None


@dataclass
class CompatibilityReport:
    """Diagnostic record of every pair considered during matching.

    One entry per (send node, receive node) pair: each pair is decided
    once, on the union of the ranks its two nodes admit.
    """

    considered: list[tuple[int, int]] = field(default_factory=list)
    matched: list[tuple[int, int, MatchWitness]] = field(default_factory=list)
    contradicted: list[tuple[int, int]] = field(default_factory=list)

    def record(
        self, send_id: int, recv_id: int, witness: MatchWitness | None
    ) -> None:
        """Log one considered pair and its match outcome."""
        self.considered.append((send_id, recv_id))
        if witness is None:
            self.contradicted.append((send_id, recv_id))
        else:
            self.matched.append((send_id, recv_id, witness))
