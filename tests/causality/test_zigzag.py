"""Zigzag-path (Netzer-Xu) tests, including the theorem itself.

The headline test validates the Netzer-Xu characterisation against a
brute-force search over boundary-augmented cuts on real simulated
traces — two completely independent implementations of "can these two
checkpoints belong to a consistent snapshot?".
"""

import itertools

import pytest

from repro.causality.cuts import (
    CheckpointCut,
    checkpoints_by_process,
    cut_is_consistent,
)
from repro.causality.records import EventKind, TraceEvent
from repro.causality.vector_clock import VectorClock
from repro.causality.zigzag import ZigzagAnalysis
from repro.lang.programs import jacobi, jacobi_odd_even, token_ring
from repro.runtime import Simulation


def event(kind, process, seq, clock, message_id=None, number=None):
    return TraceEvent(
        kind=kind,
        process=process,
        seq=seq,
        time=float(seq),
        clock=VectorClock(clock),
        message_id=message_id,
        checkpoint_number=number,
    )


def boundary_augmented_histories(events, n):
    """Per-process checkpoint lists extended with virtual initial and
    final checkpoints, as the Netzer-Xu model assumes."""
    grouped = checkpoints_by_process(events)
    per_process_events = {}
    for rank in range(n):
        history = [e for e in events if e.process == rank]
        last_seq = history[-1].seq if history else -1
        last_clock = history[-1].clock if history else VectorClock.zero(n)
        initial = event(
            EventKind.CHECKPOINT, rank, -1,
            tuple(1 if i == rank else 0 for i in range(n)), number=0,
        )
        final = TraceEvent(
            kind=EventKind.CHECKPOINT,
            process=rank,
            seq=last_seq + 1,
            time=1e9,
            clock=last_clock.tick(rank),
            checkpoint_number=10_000,
        )
        per_process_events[rank] = [initial, *grouped.get(rank, []), final]
    return per_process_events


def brute_force_pair_consistent(events, n, a_event, b_event):
    """Exhaustive search: does ANY consistent cut contain both?"""
    histories = boundary_augmented_histories(events, n)
    other_ranks = [r for r in range(n) if r not in (a_event.process, b_event.process)]
    choices = [histories[r] for r in other_ranks]
    for combo in itertools.product(*choices):
        members = (a_event, b_event, *combo)
        if cut_is_consistent(CheckpointCut(members=members)):
            return True
    return False


class TestHandCraftedZigzag:
    """The canonical 3-process example: m1 from P0 received by P1 after
    P1 sent m2 to P2 — a zigzag from P0's checkpoint to P2's even
    though no causal path connects them."""

    def _trace(self):
        return [
            event(EventKind.CHECKPOINT, 0, 0, (1, 0, 0), number=1),   # A
            event(EventKind.SEND, 0, 1, (2, 0, 0), message_id=1),     # m1
            event(EventKind.SEND, 1, 0, (0, 1, 0), message_id=2),     # m2 (before recv m1)
            event(EventKind.RECV, 1, 1, (2, 2, 0), message_id=1),
            event(EventKind.RECV, 2, 0, (0, 1, 1), message_id=2),
            event(EventKind.CHECKPOINT, 2, 1, (0, 1, 2), number=1),   # B
        ]

    def test_zigzag_exists_without_causal_path(self):
        trace = self._trace()
        analysis = ZigzagAnalysis(trace)
        assert analysis.zigzag_path_exists((0, 1), (2, 1))
        # yet no happened-before: A's clock (1,0,0) vs B's (0,1,2)
        a, b = trace[0], trace[-1]
        assert not a.clock.happened_before(b.clock)
        assert not b.clock.happened_before(a.clock)

    def test_pair_excluded_from_every_snapshot(self):
        """The zigzag makes {A, B} impossible: P1's member must either
        orphan m2 (if before the send) wait — the brute force agrees."""
        trace = self._trace()
        a, b = trace[0], trace[-1]
        assert not brute_force_pair_consistent(trace, 3, a, b)

    def test_no_reverse_zigzag(self):
        analysis = ZigzagAnalysis(self._trace())
        assert not analysis.zigzag_path_exists((2, 1), (0, 1))

    def test_no_cycles_here(self):
        analysis = ZigzagAnalysis(self._trace())
        assert analysis.useless_checkpoints() == []


class TestNetzerXuTheorem:
    """zz-consistency ⟺ membership in some boundary-augmented
    consistent cut, over every cross-process checkpoint pair of real
    simulated traces."""

    @pytest.mark.parametrize(
        "make,n", [(jacobi, 4), (jacobi_odd_even, 4), (token_ring, 3)]
    )
    def test_theorem_on_simulated_traces(self, make, n):
        trace = Simulation(make(), n, params={"steps": 3}).run().trace
        analysis = ZigzagAnalysis(trace.events)
        grouped = checkpoints_by_process(trace.events)
        checkpoints = [e for history in grouped.values() for e in history]
        pairs_checked = 0
        for a, b in itertools.combinations(checkpoints, 2):
            if a.process == b.process:
                continue
            # No zigzag path in either direction: the theorem's
            # condition for the pair to belong to some consistent cut.
            ends = [
                (a.process, a.checkpoint_number),
                (b.process, b.checkpoint_number),
            ]
            zz = not (
                analysis.zigzag_path_exists(*ends)
                or analysis.zigzag_path_exists(*ends[::-1])
            )
            brute = brute_force_pair_consistent(trace.events, n, a, b)
            assert zz == brute, (
                make.__name__,
                (a.process, a.checkpoint_number),
                (b.process, b.checkpoint_number),
            )
            pairs_checked += 1
        assert pairs_checked > 10

    def test_safe_program_has_no_useless_checkpoints(self):
        trace = Simulation(jacobi(), 4, params={"steps": 3}).run().trace
        assert ZigzagAnalysis(trace.events).useless_checkpoints() == []


class TestUselessCheckpoints:
    """A mid-exchange checkpoint opposite a checkpoint-free partner is
    the canonical useless checkpoint: a zigzag cycle runs through it
    (reply sent after it, request received before it, both falling in
    one interval of the partner)."""

    USELESS_DEMO = (
        "program useless_demo():\n"
        "    x = init(myrank)\n"
        "    i = 0\n"
        "    while i < steps:\n"
        "        if myrank == 0:\n"
        "            send(1, x)\n"
        "            x = recv(1)\n"
        "        else:\n"
        "            y = recv(0)\n"
        "            checkpoint\n"
        "            send(0, relax(y, i))\n"
        "        i = i + 1\n"
    )

    def _trace(self):
        from repro.lang.parser import parse

        return Simulation(
            parse(self.USELESS_DEMO), 2, params={"steps": 3}
        ).run().trace

    def test_all_mid_exchange_checkpoints_useless(self):
        trace = self._trace()
        analysis = ZigzagAnalysis(trace.events)
        useless = analysis.useless_checkpoints()
        assert useless == [(1, 1), (1, 2), (1, 3)]

    def test_brute_force_confirms_uselessness(self):
        trace = self._trace()
        grouped = checkpoints_by_process(trace.events)
        victim = grouped[1][0]
        histories = boundary_augmented_histories(trace.events, 2)
        # no choice of P0 checkpoint (incl. virtual boundaries) makes a
        # consistent cut with the victim
        for partner in histories[0]:
            cut = CheckpointCut(members=(victim, partner))
            assert not cut_is_consistent(cut)

    def test_phase3_repair_eliminates_useless_checkpoints(self):
        from repro.lang.parser import parse
        from repro.phases import ensure_recovery_lines

        repaired = ensure_recovery_lines(parse(self.USELESS_DEMO)).program
        trace = Simulation(repaired, 2, params={"steps": 3}).run().trace
        assert ZigzagAnalysis(trace.events).useless_checkpoints() == []
        assert trace.all_straight_cuts_consistent()
