"""Figure 9: overhead ratio vs message setup time w_m (EXPERIMENTS.md).

The paper leaves w_m unstated, so every Figure 9 claim is a shape
claim. The application-driven curve is exactly flat (it sends no
coordination messages), and the shapes survive the paper's congestion
remark: a sweep with every w_m ten times larger.
"""

from repro.analysis.comparison import DEFAULT_SETUP_TIMES, figure9_series
from repro.analysis.parameters import ModelParameters, ProtocolKind
from repro.bench.figures import shape_check_figure9


def test_appl_driven_is_exactly_flat_in_w_m():
    ratios = figure9_series()[ProtocolKind.APPLICATION_DRIVEN].ratios
    assert len(set(ratios)) == 1


def test_shape_claims_hold_under_10x_congestion():
    congested = tuple(10 * w for w in DEFAULT_SETUP_TIMES)
    curves = figure9_series(ModelParameters(), congested, 64)
    assert shape_check_figure9(curves) == []
