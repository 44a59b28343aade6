"""Comparison-sweep (Figures 8/9) and optimal-interval tests."""

import pytest

from repro.analysis.comparison import (
    ProtocolCurve,
    figure8_series,
    figure9_series,
    overhead_ratio_for_protocol,
)
from repro.analysis.optimal_interval import (
    daly_interval,
    optimal_interval_exact,
    young_interval,
)
from repro.analysis.parameters import ModelParameters, ProtocolKind
from repro.bench.figures import shape_check_figure8, shape_check_figure9
from repro.errors import AnalysisError


class TestFigure8:
    def test_all_protocols_present(self):
        curves = figure8_series()
        assert set(curves) == set(ProtocolKind)

    def test_shape_claims_hold(self):
        assert shape_check_figure8(figure8_series()) == []

    def test_appl_driven_strictly_cheapest(self):
        curves = figure8_series()
        appl = curves[ProtocolKind.APPLICATION_DRIVEN].ratios
        for kind in (ProtocolKind.SYNC_AND_STOP, ProtocolKind.CHANDY_LAMPORT):
            other = curves[kind].ratios
            assert all(a < o for a, o in zip(appl, other))

    def test_custom_process_counts(self):
        curves = figure8_series(process_counts=(8, 16))
        assert curves[ProtocolKind.SYNC_AND_STOP].x_values == (8.0, 16.0)


class TestFigure9:
    def test_shape_claims_hold(self):
        assert shape_check_figure9(figure9_series()) == []

    def test_appl_driven_flat(self):
        curve = figure9_series()[ProtocolKind.APPLICATION_DRIVEN]
        assert max(curve.ratios) == pytest.approx(min(curve.ratios))

    def test_zero_setup_near_parity(self):
        """At w_m = 0 (and tiny w_b) coordination is nearly free; the
        protocols should then be within a small factor of each other."""
        params = ModelParameters(per_bit_delay=1e-9)
        curves = figure9_series(params, setup_times=(0.0,), n_processes=64)
        ratios = [c.ratios[0] for c in curves.values()]
        assert max(ratios) / min(ratios) < 1.05

    def test_shape_detects_broken_series(self):
        curves = figure9_series()
        broken = dict(curves)
        flat = curves[ProtocolKind.APPLICATION_DRIVEN]
        broken[ProtocolKind.CHANDY_LAMPORT] = ProtocolCurve(
            kind=ProtocolKind.CHANDY_LAMPORT,
            x_values=flat.x_values,
            ratios=flat.ratios,
        )
        assert shape_check_figure9(broken)


class TestPerProtocolRatio:
    def test_matches_series_entries(self):
        params = ModelParameters()
        curves = figure8_series(params, process_counts=(32,))
        for kind in ProtocolKind:
            direct = overhead_ratio_for_protocol(params, kind, 32)
            assert curves[kind].ratios[0] == pytest.approx(direct)

    def test_grows_with_extra_coordination(self):
        base = overhead_ratio_for_protocol(
            ModelParameters(), ProtocolKind.APPLICATION_DRIVEN, 64
        )
        loaded = overhead_ratio_for_protocol(
            ModelParameters(extra_coordination=5.0),
            ProtocolKind.APPLICATION_DRIVEN,
            64,
        )
        assert loaded > base


class TestOptimalIntervals:
    def test_young_formula(self):
        assert young_interval(2.0, 0.01) == pytest.approx(20.0)

    def test_daly_close_to_young_for_small_overhead(self):
        young = young_interval(0.1, 1e-4)
        daly = daly_interval(0.1, 1e-4)
        assert daly == pytest.approx(young, rel=0.05)

    def test_daly_fallback_for_huge_overhead(self):
        assert daly_interval(1000.0, 0.01) == pytest.approx(100.0)

    def test_exact_optimum_beats_neighbours(self):
        lam, overhead, recovery, latency = 1e-4, 1.78, 3.32, 4.292
        best = optimal_interval_exact(lam, overhead, recovery, latency)

        from repro.analysis.overhead import overhead_ratio

        def ratio(T):
            return overhead_ratio(lam, T, overhead, recovery, latency)

        assert ratio(best) <= ratio(best * 0.8)
        assert ratio(best) <= ratio(best * 1.25)

    def test_exact_near_young_for_small_rate(self):
        lam, overhead = 1e-6, 1.78
        best = optimal_interval_exact(lam, overhead, 3.32, 4.292)
        assert best == pytest.approx(young_interval(overhead, lam), rel=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            young_interval(-1.0, 0.1)
        with pytest.raises(AnalysisError):
            young_interval(1.0, 0.0)
        with pytest.raises(AnalysisError):
            daly_interval(1.0, -0.5)
        with pytest.raises(AnalysisError):
            optimal_interval_exact(1e-4, -1.0, 0.0, 0.0)
