"""Application completion-time analysis tests."""

import math

import pytest

from repro.analysis.availability import (
    break_even_work,
    expected_completion_with_checkpointing,
    expected_completion_without_checkpointing,
    simulate_unprotected_completion,
)
from repro.errors import AnalysisError

PAPER = dict(
    interval=300.0, total_overhead=1.78, recovery=3.32, total_latency=4.292
)


class TestClosedForms:
    def test_unprotected_failure_free_limit(self):
        # λW << 1: expected time ≈ W
        value = expected_completion_without_checkpointing(100.0, 1e-9)
        assert value == pytest.approx(100.0, rel=1e-6)

    def test_unprotected_matches_monte_carlo(self):
        lam, work = 1e-3, 2000.0
        closed = expected_completion_without_checkpointing(work, lam)
        estimate = simulate_unprotected_completion(
            work, lam, trials=40_000, seed=3
        )
        assert estimate == pytest.approx(closed, rel=0.05)

    def test_unprotected_restart_overhead_counted(self):
        lam, work = 1e-3, 2000.0
        without = expected_completion_without_checkpointing(work, lam)
        with_overhead = expected_completion_without_checkpointing(
            work, lam, restart_overhead=50.0
        )
        assert with_overhead > without
        estimate = simulate_unprotected_completion(
            work, lam, restart_overhead=50.0, trials=40_000, seed=4
        )
        assert estimate == pytest.approx(with_overhead, rel=0.05)

    def test_checkpointed_completion_scales_with_work(self):
        lam = 1e-4
        small = expected_completion_with_checkpointing(3_000, lam, **PAPER)
        large = expected_completion_with_checkpointing(30_000, lam, **PAPER)
        assert large == pytest.approx(10 * small)

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            expected_completion_with_checkpointing(0, 1e-4, **PAPER)
        with pytest.raises(AnalysisError):
            expected_completion_without_checkpointing(-5, 1e-4)
        with pytest.raises(AnalysisError):
            expected_completion_without_checkpointing(5, 0.0)


class TestBreakEven:
    def test_crossover_exists_at_paper_parameters(self):
        lam = 256 * 1.23e-6
        point = break_even_work(lam, **PAPER)
        assert point is not None
        assert point.with_checkpointing == pytest.approx(
            point.without_checkpointing, rel=1e-3
        )

    def test_checkpointing_wins_beyond_crossover(self):
        lam = 256 * 1.23e-6
        point = break_even_work(lam, **PAPER)
        work = point.work * 10
        protected = expected_completion_with_checkpointing(work, lam, **PAPER)
        unprotected = expected_completion_without_checkpointing(work, lam)
        assert protected < unprotected

    def test_unprotected_wins_below_crossover(self):
        lam = 256 * 1.23e-6
        point = break_even_work(lam, **PAPER)
        work = point.work / 10
        protected = expected_completion_with_checkpointing(work, lam, **PAPER)
        unprotected = expected_completion_without_checkpointing(work, lam)
        assert unprotected < protected

    def test_payoff_grows_with_work(self):
        lam = 256 * 1.23e-6
        payoffs = [
            expected_completion_without_checkpointing(hours * 3600.0, lam)
            / expected_completion_with_checkpointing(
                hours * 3600.0, lam, **PAPER
            )
            for hours in (1, 6, 24, 96)
        ]
        assert payoffs == sorted(payoffs) and payoffs[-1] > payoffs[0]

    def test_higher_failure_rate_lowers_crossover(self):
        low = break_even_work(1e-5, **PAPER)
        high = break_even_work(1e-3, **PAPER)
        assert high.work < low.work

    def test_exponential_blowup_without_checkpointing(self):
        """The motivating observation: unprotected completion time
        explodes exponentially in λW, while the checkpointed time stays
        linear in W."""
        lam = 1e-3
        work = 20_000.0  # λW = 20
        unprotected = expected_completion_without_checkpointing(work, lam)
        protected = expected_completion_with_checkpointing(
            work, lam, interval=100.0, total_overhead=1.78,
            recovery=3.32, total_latency=4.292,
        )
        assert unprotected > 1e6 * protected
        assert math.isfinite(unprotected)
