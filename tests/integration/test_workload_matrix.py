"""The workload × protocol matrix under failure.

Systematic coverage: every standard workload, under every protocol,
with one injected mid-run crash, must (a) complete, (b) recover exactly
once, and (c) respect its protocol's coordination profile. The matrix
is one campaign of protocol cells. This is the broadest single
integration surface in the suite.
"""

import pytest

from repro.bench.workloads import protocol_cells, standard_workloads
from repro.campaign import run_campaign
from repro.runtime import FaultPlan

COORDINATION_FREE = {"appl-driven", "uncoordinated", "cic", "msg-logging"}


@pytest.fixture(scope="module")
def matrix():
    """Run the full matrix once: workload -> protocol -> cell outcome.

    Each workload's crash lands at 0.6 × its bare (protocol-free,
    checkpoint-free) completion time, and its period is a fifth of it.
    """
    workloads = standard_workloads(steps=10)
    bare = run_campaign([
        cell for w in workloads for cell in protocol_cells(w, ("none",))
    ])
    cells = []
    for w in workloads:
        time = bare.cells[f"{w.label}/none"].completion_time
        cells += protocol_cells(
            w,
            period=max(2.0, time / 5),
            fault_plan=FaultPlan.single(time * 0.6, w.n_processes - 1),
        )
    result = run_campaign(cells)
    grid = {}
    for cell in cells:
        grid.setdefault(cell.label.rpartition("/")[0], {})[cell.protocol] = (
            result.cells[cell.label]
        )
    return grid


def _cells(matrix):
    for name, row in matrix.items():
        for protocol, outcome in row.items():
            yield name, protocol, outcome


class TestMatrix:
    def test_the_grid_is_every_workload_by_every_protocol(self, matrix):
        assert len(matrix) == 8
        assert {len(row) for row in matrix.values()} == {6}

    def test_every_cell_completes(self, matrix):
        incomplete = [
            (name, protocol, outcome.error)
            for name, protocol, outcome in _cells(matrix)
            if not outcome.ok
        ]
        assert incomplete == []

    def test_every_cell_recovered_exactly_once(self, matrix):
        wrong = [
            (name, protocol, outcome.stats["rollbacks"])
            for name, protocol, outcome in _cells(matrix)
            if outcome.stats["failures"] != 1
            or outcome.stats["rollbacks"] != 1
        ]
        assert wrong == []

    def test_coordination_profiles(self, matrix):
        for name, protocol, outcome in _cells(matrix):
            control = outcome.stats["control_messages"]
            if protocol in COORDINATION_FREE:
                assert control == 0, (name, protocol)
            else:
                assert control > 0, (name, protocol)

    def test_appl_driven_never_forces_checkpoints(self, matrix):
        for name, row in matrix.items():
            assert row["appl-driven"].stats["forced_checkpoints"] == 0, name

    def test_crash_really_happened_mid_run(self, matrix):
        for name, protocol, outcome in _cells(matrix):
            assert outcome.stats["failures"] == 1, (name, protocol)
