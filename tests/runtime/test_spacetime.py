"""Space-time diagram renderer tests."""

from repro.lang.programs import jacobi, jacobi_odd_even
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FaultPlan, Simulation
from repro.viz import render_messages, render_spacetime


def run_trace(make=jacobi, n=4, steps=3, plan=None, protocol=None):
    return Simulation(
        make(), n, params={"steps": steps},
        fault_plan=plan, protocol=protocol,
    ).run().trace


class TestSpacetime:
    def test_one_row_per_process(self):
        trace = run_trace(n=4)
        rows = [
            line for line in render_spacetime(trace).splitlines()
            if line.startswith("P")
        ]
        assert len(rows) == 4

    def test_markers_present(self):
        text = render_spacetime(run_trace())
        assert "C" in text and "s" in text and "r" in text

    def test_failure_and_restart_markers(self):
        trace = run_trace(
            steps=8,
            plan=FaultPlan.single(8.0, 1),
            protocol=ApplicationDrivenProtocol(),
        )
        text = render_spacetime(trace)
        assert "X" in text
        assert "^" in text

    def test_cut_members_highlighted(self):
        trace = run_trace()
        cut = trace.straight_cut(1)
        text = render_spacetime(trace, cut=cut)
        rows = [line for line in text.splitlines() if line.startswith("P")]
        assert sum(row.count("#") for row in rows) == 4
        assert "cut member" in text

    def test_row_width_bounded(self):
        text = render_spacetime(run_trace(), width=50)
        rows = [line for line in text.splitlines() if line.startswith("P")]
        assert all(len(row) <= 56 for row in rows)

    def test_empty_trace(self):
        from repro.runtime.trace import ExecutionTrace

        text = render_spacetime(ExecutionTrace(n_processes=2))
        assert text.count("|") == 2

    def test_time_range_reported(self):
        trace = run_trace()
        text = render_spacetime(trace)
        assert f"{trace.completion_time():.2f}" in text


class TestMessageTable:
    def test_lists_messages_with_delays(self):
        trace = run_trace()
        table = render_messages(trace)
        assert "P0->P1" in table or "P1->P0" in table
        assert "delay" in table

    def test_limit_respected(self):
        trace = run_trace(make=jacobi_odd_even, steps=6)
        table = render_messages(trace, limit=3)
        data_rows = [
            line for line in table.splitlines() if "->" in line
        ]
        assert len(data_rows) == 3
        assert "more" in table
