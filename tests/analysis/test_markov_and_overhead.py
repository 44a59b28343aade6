"""Markov-chain / closed-form / Monte Carlo agreement tests (V3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.markov import IntervalMarkovChain, expected_interval_time
from repro.analysis.montecarlo import simulate_interval_time
from repro.analysis.overhead import (
    failure_free_ratio,
    gamma_closed_form,
    overhead_ratio,
)
from repro.errors import AnalysisError

PAPER = dict(
    interval=300.0, total_overhead=1.78, recovery=3.32, total_latency=4.292
)


def chain(lam, **overrides):
    params = {**PAPER, **overrides}
    return IntervalMarkovChain(failure_rate=lam, **params)


class TestTransitionStructure:
    def test_probabilities_sum_to_one(self):
        c = chain(1e-3)
        assert c.p_success_first() + c.p_fail_first() == pytest.approx(1.0)
        assert c.p_success_retry() + c.p_fail_retry() == pytest.approx(1.0)

    def test_conditional_ttf_below_span(self):
        c = chain(1e-3)
        for span in (c.first_attempt_span, c.retry_span):
            ttf = c.mean_time_to_failure_within(span)
            assert 0 < ttf < span

    def test_conditional_ttf_tends_to_half_span_for_small_rate(self):
        c = chain(1e-9)
        span = c.first_attempt_span
        assert c.mean_time_to_failure_within(span) == pytest.approx(
            span / 2, rel=1e-3
        )

    def test_invalid_parameters(self):
        with pytest.raises(AnalysisError):
            chain(0.0)
        with pytest.raises(AnalysisError):
            chain(-1.0)
        with pytest.raises(AnalysisError):
            IntervalMarkovChain(1e-3, -5.0, 1.0, 1.0, 1.0)


class TestGammaAgreement:
    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(min_value=1e-7, max_value=1e-2),
        interval=st.floats(min_value=10.0, max_value=2000.0),
        overhead=st.floats(min_value=0.0, max_value=50.0),
        recovery=st.floats(min_value=0.0, max_value=50.0),
        latency=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_two_path_equals_linear_system_equals_closed_form(
        self, lam, interval, overhead, recovery, latency
    ):
        c = IntervalMarkovChain(lam, interval, overhead, recovery, latency)
        two_path = c.expected_time_two_path()
        linear = c.expected_time_linear_system()
        closed = gamma_closed_form(lam, interval, overhead, recovery, latency)
        # 1e-7 relative: the two-path expansion suffers mild
        # cancellation at extreme lambda*T, which is floating-point
        # noise, not algebra error.
        assert two_path == pytest.approx(linear, rel=1e-7)
        assert two_path == pytest.approx(closed, rel=1e-7)

    def test_paper_parameter_point(self):
        lam = 256 * 1.23e-6
        gamma = gamma_closed_form(lam, **PAPER)
        assert gamma == pytest.approx(expected_interval_time(lam, **PAPER))
        assert gamma > PAPER["interval"] + PAPER["total_overhead"]

    def test_gamma_tends_to_span_without_failures(self):
        gamma = gamma_closed_form(1e-12, **PAPER)
        assert gamma == pytest.approx(
            PAPER["interval"] + PAPER["total_overhead"], rel=1e-6
        )

    def test_gamma_increases_with_rate(self):
        gammas = [
            gamma_closed_form(lam, **PAPER) for lam in (1e-6, 1e-4, 1e-2)
        ]
        assert gammas == sorted(gammas)

    def test_monte_carlo_agrees(self):
        lam = 2e-3  # high enough that failures matter
        estimate = simulate_interval_time(lam, **PAPER, trials=40_000, seed=1)
        closed = gamma_closed_form(lam, **PAPER)
        assert estimate.within(closed, sigmas=4.0)
        assert estimate.mean_failures > 0

    def test_monte_carlo_failure_free_limit(self):
        estimate = simulate_interval_time(1e-9, **PAPER, trials=2_000)
        assert estimate.mean == pytest.approx(
            PAPER["interval"] + PAPER["total_overhead"], rel=1e-4
        )


class TestOverheadRatio:
    def test_ratio_matches_gamma(self):
        lam = 1e-4
        gamma = gamma_closed_form(lam, **PAPER)
        ratio = overhead_ratio(lam, **PAPER)
        assert ratio == pytest.approx(gamma / PAPER["interval"] - 1.0)

    def test_failure_free_anchor(self):
        assert failure_free_ratio(300.0, 3.0) == pytest.approx(0.01)
        ratio = overhead_ratio(1e-12, **PAPER)
        assert ratio == pytest.approx(
            failure_free_ratio(PAPER["interval"], PAPER["total_overhead"]),
            abs=1e-6,
        )

    def test_ratio_positive(self):
        assert overhead_ratio(1e-5, **PAPER) > 0

    def test_ratio_monotone_in_overhead(self):
        low = overhead_ratio(1e-4, 300.0, 1.0, 3.32, 4.292)
        high = overhead_ratio(1e-4, 300.0, 10.0, 3.32, 4.292)
        assert high > low

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            overhead_ratio(0.0, **PAPER)
        with pytest.raises(AnalysisError):
            gamma_closed_form(1e-4, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(AnalysisError):
            failure_free_ratio(0.0, 1.0)
