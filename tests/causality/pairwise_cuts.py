"""The pairwise cut checks, kept as a test oracle.

Definition 2.1 as the source tree checked it before one clock-matrix
pass (``repro.causality.cuts.first_causal_pair``) decided every cut:
every ordered pair of members asked ``happened_before`` in rank order,
and the uncoordinated rollback search re-scanning every pair after each
step. The production checks must give the same verdict, the same named
pair and the same rollback positions and domino count
(``test_cut_judge_differential.py``).
"""

from __future__ import annotations

from itertools import permutations

from repro.causality import cuts, rollback_graph
from repro.errors import StorageError
from repro.protocols import application_driven, uncoordinated
from repro.runtime import chaos


def latest_with_number(storage, rank, number):
    """The most recent checkpoint of *rank* with the given *number*.

    Rollback can make a process re-take checkpoint ``i``; the most
    recent instance reflects the surviving timeline.
    """
    for checkpoint in reversed(storage.history(rank)):
        if checkpoint.number == number:
            return checkpoint
    raise StorageError(
        "rank has no checkpoint with this number", rank=rank, number=number
    )


def first_causal_pair(clocks):
    """The first ordered pair ``(p, q)``, in rank order, with
    ``clocks[p] -> clocks[q]``, or ``None``."""
    for (p, a), (q, b) in permutations(sorted(clocks.items()), 2):
        if a.happened_before(b):
            return p, q
    return None


def cut_is_consistent(cut) -> bool:
    """Definition 2.1: no member happened before another member."""
    for a in cut.members:
        for b in cut.members:
            if a is not b and a.clock.happened_before(b.clock):
                return False
    return True


def storage_recovery_lines_consistent(result, n_processes: int) -> bool:
    """Whether every surviving straight cut on storage is a recovery line."""
    ranks = list(range(n_processes))
    storage = result.storage
    common = storage.max_common_number(ranks)
    for number in range(1, common + 1):
        try:
            members = [
                latest_with_number(storage, rank, number) for rank in ranks
            ]
        except StorageError:
            continue
        for a in members:
            for b in members:
                if a is not b and a.clock.happened_before(b.clock):
                    return False
    return True


def max_consistent_positions(clock_lists):
    """The rollback fixpoint, one pair at a time: the first member (in
    *clock_lists* order) whose clock has another member's in its past
    rolls back one position, and the scan starts over."""
    position = {rank: len(clocks) - 1 for rank, clocks in clock_lists.items()}
    processes = list(clock_lists)
    domino_steps = 0

    def clock_of(rank):
        pos = position[rank]
        return None if pos < 0 else clock_lists[rank][pos]

    changed = True
    while changed:
        changed = False
        for later in processes:
            later_clock = clock_of(later)
            if later_clock is None:
                continue
            for earlier in processes:
                if earlier == later:
                    continue
                earlier_clock = clock_of(earlier)
                if earlier_clock is None:
                    continue
                if earlier_clock.happened_before(later_clock):
                    position[later] -= 1
                    domino_steps += 1
                    changed = True
                    break
            if changed:
                break
    return position, domino_steps


def outcome(call):
    """What *call* returns, or the type and text of what it raises."""
    try:
        return "ok", call()
    except ValueError as error:
        return ValueError, str(error)


def check_against_oracle(monkeypatch) -> list:
    """Make every production cut check also ask the oracle.

    Patches the name ``first_causal_pair`` wherever the source tree
    calls it (the chaos judge, ``_validate_cut``, ``cut_is_consistent``
    and the rollback search) with a wrapper that asserts the pairwise
    answer, or the same ``ValueError``, and returns the production one;
    the uncoordinated protocol's whole rollback search must also land
    on the pairwise fixpoint's positions and domino count. Returns the
    list of clock maps judged, so a caller can tell the check ran.
    """
    judged = []
    production = cuts.first_causal_pair
    search = rollback_graph.max_consistent_positions

    def checked(clocks):
        judged.append(clocks)
        got = outcome(lambda: production(clocks))
        want = outcome(lambda: first_causal_pair(clocks))
        assert got == want, (clocks, got, want)
        if got[0] is ValueError:
            raise ValueError(got[1])
        return got[1]

    def checked_search(clock_lists):
        got = search(clock_lists)
        assert got == max_consistent_positions(clock_lists), clock_lists
        return got

    for module in (cuts, rollback_graph, application_driven, chaos):
        monkeypatch.setattr(module, "first_causal_pair", checked)
    monkeypatch.setattr(
        uncoordinated, "max_consistent_positions", checked_search
    )
    return judged
