"""V6: each protocol at its own optimal interval keeps its rank.

The paper fixes T = 300 s for every protocol. Letting each protocol
checkpoint at its own optimum T* does not change the ordering. At
n = 512 appl-driven has T* = 74 s and r* = 0.053, and C-L has
T* = 970 s and r* = 1.58: C-L checkpoints 13x less often and still
pays 30x.
"""

import pytest

from repro.analysis.parameters import ModelParameters, ProtocolKind
from repro.analysis.sensitivity import optimal_comparison

APPL = ProtocolKind.APPLICATION_DRIVEN
SAS = ProtocolKind.SYNC_AND_STOP
CL = ProtocolKind.CHANDY_LAMPORT


@pytest.fixture(scope="module")
def comparison():
    return optimal_comparison(ModelParameters(), (16, 64, 256, 512))


def test_ordering_holds_at_every_n(comparison):
    for appl, sas, cl in zip(comparison[APPL], comparison[SAS],
                             comparison[CL]):
        assert appl.ratio < sas.ratio < cl.ratio


def test_optima_at_n_512(comparison):
    appl, cl = comparison[APPL][-1], comparison[CL][-1]
    assert (round(appl.interval), round(appl.ratio, 3)) == (74, 0.053)
    assert (round(cl.interval), round(cl.ratio, 2)) == (970, 1.58)
    assert round(cl.interval / appl.interval) == 13
    assert round(cl.ratio / appl.ratio) == 30
