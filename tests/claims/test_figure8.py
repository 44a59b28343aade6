"""Figure 8: overhead ratio vs number of processes (EXPERIMENTS.md).

The shape claims hold at any sweep resolution, and at n = 512 C-L's
quadratic marker traffic costs 23.6x the coordination-free protocol's
overhead ratio.
"""

from repro.analysis.comparison import figure8_series
from repro.analysis.parameters import ProtocolKind
from repro.bench.figures import shape_check_figure8


def test_shape_claims_hold_on_a_dense_sweep():
    dense = tuple(range(16, 513, 16))
    assert shape_check_figure8(figure8_series(process_counts=dense)) == []


def test_chandy_lamport_pays_23_6x_appl_driven_at_n_512():
    curves = figure8_series()
    cl = curves[ProtocolKind.CHANDY_LAMPORT]
    appl = curves[ProtocolKind.APPLICATION_DRIVEN]
    assert cl.x_values[-1] == 512
    assert round(cl.ratios[-1] / appl.ratios[-1], 1) == 23.6
