"""V4/V5: protocol-comparison experiments on the simulator.

These are the empirical counterparts of the paper's analytic Section 4:
same workload, same seed, different protocols — one campaign cell each.
"""

import pytest

from repro.bench.workloads import (
    comparison_table,
    protocol_cells,
    standard_workloads,
    strip_checkpoints,
)
from repro.campaign import run_campaign
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.programs import jacobi
from repro.protocols import PROTOCOL_CLASSES, RECOVERING_PROTOCOLS
from repro.runtime import FaultPlan


def workload(name, steps):
    return next(w for w in standard_workloads(steps=steps) if w.label == name)


def run_stats(cells):
    """Run *cells* as one campaign; protocol key -> stats dict."""
    result = run_campaign(cells)
    return {cell.protocol: result.cells[cell.label].stats for cell in cells}


@pytest.fixture(scope="module")
def comparison_stats():
    return run_stats(protocol_cells(
        workload("jacobi", 12), period=6.0,
        fault_plan=FaultPlan.single(14.3, 2),
    ))


class TestCoordinationCosts:
    def test_appl_driven_is_coordination_free(self, comparison_stats):
        appl = comparison_stats["appl-driven"]
        assert appl["control_messages"] == 0
        assert appl["forced_checkpoints"] == 0

    def test_coordinated_protocols_pay_messages(self, comparison_stats):
        for key in ("sas", "cl"):
            assert comparison_stats[key]["control_messages"] > 0, key

    def test_cl_sends_more_messages_than_sas(self):
        """Per round SaS sends 5(n-1) control messages and C-L
        (n-1)(n+1): n(n-1) markers plus n-1 completion acks. Each round
        checkpoints every rank once."""
        pingpong = workload("pingpong", 12)
        n = pingpong.n_processes
        assert n == 6
        stats = run_stats(protocol_cells(pingpong, ("sas", "cl"), period=6.0))
        for key, per_round in (("sas", 5 * (n - 1)), ("cl", (n - 1) * (n + 1))):
            rounds, rest = divmod(stats[key]["checkpoints"], n)
            assert (rounds, rest) == (2, 0), key
            assert stats[key]["control_messages"] == rounds * per_round, key
        assert stats["sas"]["control_messages"] == 50
        assert stats["cl"]["control_messages"] == 70

    def test_uncoordinated_and_cic_message_free(self, comparison_stats):
        for key in ("uncoordinated", "cic"):
            assert comparison_stats[key]["control_messages"] == 0, key

    def test_all_protocols_complete_and_recover(self, comparison_stats):
        for key, stats in comparison_stats.items():
            assert stats["completed"], key
            assert stats["failures"] == 1, key
            assert stats["rollbacks"] == 1, key


class TestHarness:
    def test_one_cell_per_registered_protocol(self):
        cells = protocol_cells(workload("jacobi", 4))
        assert RECOVERING_PROTOCOLS == tuple(
            key for key in PROTOCOL_CLASSES if key != "none"
        )
        assert [cell.protocol for cell in cells] == list(RECOVERING_PROTOCOLS)
        assert len({cell.label for cell in cells}) == len(cells)

    def test_subset_of_protocols(self):
        # Only the application-driven cell keeps its checkpoint statements.
        cells = protocol_cells(workload("jacobi", 4), ("appl-driven", "sas"))
        assert [cell.label for cell in cells] == [
            "jacobi/appl-driven", "jacobi/sas",
        ]
        appl, sas = (parse(cell.program) for cell in cells)
        assert ast.count_statements(appl, ast.Checkpoint) == 1
        assert ast.count_statements(sas, ast.Checkpoint) == 0

    def test_strip_checkpoints(self):
        stripped = strip_checkpoints(jacobi())
        assert ast.count_statements(stripped, ast.Checkpoint) == 0
        # original untouched
        assert ast.count_statements(jacobi(), ast.Checkpoint) == 1

    def test_standard_workloads_all_run(self):
        cells = [
            cell
            for spec in standard_workloads(steps=4)
            for cell in protocol_cells(spec, ("appl-driven",), period=8.0)
        ]
        assert len(cells) == 8
        assert run_campaign(cells).failures == []


class TestTable:
    def test_protocol_column_is_the_class_name(self):
        cells = protocol_cells(workload("jacobi", 4), ("sas", "cic"))
        rows = comparison_table(cells, run_campaign(cells)).splitlines()
        assert [row.split()[:2] for row in rows[1:]] == [
            ["jacobi", "SaS"], ["jacobi", "CIC-BCS"],
        ]

    def test_failed_cell_row_carries_its_error(self):
        cells = protocol_cells(
            workload("jacobi", 4), ("appl-driven",), max_steps=5
        )
        result = run_campaign(cells)
        assert result.failures
        row = comparison_table(cells, result).splitlines()[1]
        assert row.endswith(
            "appl-driven SimulationError: step budget exceeded (5); "
            "likely a livelock or a runaway failure plan"
        )
