"""The paper's running examples (Figures 1-6), end to end.

Each test states which figure it reproduces; together they constitute
the executable form of Section 2/3's narrative.
"""

from repro.cfg import build_cfg, find_back_edges, index_checkpoints
from repro.lang import to_source
from repro.lang.parser import parse
from repro.lang.printer import ast_equal
from repro.lang.programs import jacobi, jacobi_odd_even
from repro.phases import (
    build_extended_cfg,
    check_condition1,
    ensure_recovery_lines,
    transform,
    verify_program,
)
from repro.protocols import ApplicationDrivenProtocol
from repro.runtime import FaultPlan, Simulation


class TestFigure1:
    """The Jacobi program: same checkpoint point for every process."""

    def test_cfg_has_backward_edge(self):
        cfg = build_cfg(jacobi())
        assert len(find_back_edges(cfg)) == 1

    def test_single_shared_checkpoint_node(self):
        indexing = index_checkpoints(build_cfg(jacobi()))
        assert [len(c) for c in indexing.columns] == [1]

    def test_every_straight_cut_is_recovery_line_statically(self):
        assert verify_program(jacobi()).ok

    def test_every_straight_cut_is_recovery_line_empirically(self):
        for n in (2, 4, 6):
            trace = Simulation(jacobi(), n, params={"steps": 5}).run().trace
            assert trace.all_straight_cuts_consistent()


class TestFigures2to4:
    """The odd/even variant, its execution, and its extended CFG."""

    def test_parity_branch_is_id_dependent(self):
        from repro.attributes.dataflow import (
            ConditionClass,
            classify_condition,
            classify_variables,
        )
        from repro.lang import ast_nodes as ast

        program = jacobi_odd_even()
        classes = classify_variables(program)
        branch = next(
            n
            for n in ast.walk(program)
            if isinstance(n, ast.If)
        )
        assert (
            classify_condition(branch.cond, classes)
            is ConditionClass.ID_DEPENDENT
        )

    def test_extended_cfg_has_cross_parity_message_edges(self):
        """Figure 4: message edges between the matched send/recv pairs."""
        ext = build_extended_cfg(jacobi_odd_even())
        assert len(ext.message_edges) == 2

    def test_condition1_violated(self):
        ext = build_extended_cfg(jacobi_odd_even())
        result = check_condition1(ext)
        assert not result.ok

    def test_figure3_execution_has_inconsistent_straight_cut(self):
        """Figure 3: 'not every straight cut of checkpoints is a
        recovery line'."""
        trace = Simulation(
            jacobi_odd_even(), 4, params={"steps": 5}
        ).run().trace
        assert not trace.all_straight_cuts_consistent()

    def test_causality_direction_matches_paper(self):
        """The even process's checkpoint happens before the odd's (the
        message from even to odd crosses between them)."""
        from repro.causality.cuts import cut_is_consistent

        trace = Simulation(jacobi_odd_even(), 2, params={"steps": 3}).run().trace
        cut = trace.straight_cut(1)
        assert not cut_is_consistent(cut)
        even_member = cut.member_for(0)
        odd_member = cut.member_for(1)
        assert even_member.clock.happened_before(odd_member.clock)


class TestFigures5and6:
    """Inconsistency patterns: direct paths and back-edge paths."""

    def test_direct_path_pattern_rejected(self):
        source = parse(
            "program fig5():\n"
            "    if myrank % 2 == 0:\n"
            "        checkpoint\n"
            "        send(myrank + 1, 1)\n"
            "    else:\n"
            "        y = recv(myrank - 1)\n"
            "        checkpoint\n"
        )
        result = verify_program(source)
        assert not result.ok
        assert any(not v.uses_back_edge for v in result.violations)

    def test_back_edge_path_pattern_detected(self):
        """Figure 6's subtlety: the only path between the same-index
        checkpoints wraps around the loop's backward edge."""
        source = parse(
            "program fig6():\n"
            "    i = 0\n"
            "    while i < steps:\n"
            "        if myrank % 2 == 0:\n"
            "            checkpoint\n"
            "            send(myrank + 1, 1)\n"
            "            y = recv(myrank + 1)\n"
            "        else:\n"
            "            checkpoint\n"
            "            y = recv(myrank - 1)\n"
            "            send(myrank - 1, 2)\n"
            "        i = i + 1\n"
        )
        full = verify_program(source, include_back_edge_paths=True)
        same_iter = verify_program(source, include_back_edge_paths=False)
        assert not full.ok
        assert same_iter.ok
        assert all(v.uses_back_edge for v in full.violations)


class TestAlgorithm32:
    """Phase III turns Figure 2 into Figure 1 and the result survives
    failures with zero coordination."""

    def test_repair_produces_figure1(self):
        repaired = ensure_recovery_lines(jacobi_odd_even()).program
        assert ast_equal(repaired.body, jacobi().body)

    def test_repaired_program_runs_safely_under_failures(self):
        result = transform(jacobi_odd_even())
        baseline = Simulation(
            result.program, 4, params={"steps": 8}
        ).run()
        crashed = Simulation(
            result.program,
            4,
            params={"steps": 8},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=FaultPlan.single(9.7, 2),
        ).run()
        assert crashed.stats.completed
        assert crashed.stats.control_messages == 0
        assert crashed.final_env == baseline.final_env

    def test_transform_report_is_printable(self):
        result = transform(jacobi_odd_even())
        text = to_source(result.program)
        assert "checkpoint" in text
