"""V14: storage and network faults cost time, never a run.

Two sweeps over ring_pipeline (n = 3, 4 seeds a rate):

- storage faults (write failures, torn writes, bit rot, transient
  errors) at a constant crash rate, under appl-driven and
  uncoordinated: degraded recovery keeps availability at 1.0, and
  injected faults and completion time grow with the rate;
- network faults (drops and duplicates) under appl-driven,
  uncoordinated and msg-logging: the retransmitting transport keeps
  availability at 1.0, and retransmits and r = Γ/T − 1 grow with the
  rate, to at most 0.63 at 0.1 faults per channel.

The zero-rate cell of each sweep is fault-free.
"""

import pytest

from repro.bench.fault_tolerance import DEFAULT_RATES, fault_tolerance_sweep
from repro.bench.network_faults import (
    DEFAULT_NETWORK_RATES,
    network_fault_sweep,
)


def _by_protocol(rows):
    series = {}
    for row in rows:
        series.setdefault(row.protocol, []).append(row)
    return series


def _increasing(values):
    return values == sorted(values) and values[-1] > values[0]


@pytest.fixture(scope="module")
def storage_sweep():
    return fault_tolerance_sweep()


@pytest.fixture(scope="module")
def network_sweep():
    return network_fault_sweep()


def test_storage_faults_lose_no_run(storage_sweep):
    series = _by_protocol(storage_sweep)
    assert set(series) == {"appl-driven", "uncoordinated"}
    for protocol, rows in series.items():
        assert [r.rate for r in rows] == list(DEFAULT_RATES)
        assert all(r.availability == 1.0 for r in rows), protocol
        clean = rows[0]
        assert clean.write_failures == clean.torn_writes == 0
        assert clean.bit_rot == clean.retries == clean.fallbacks == 0
        assert _increasing([r.mean_time for r in rows]), protocol
        assert _increasing(
            [r.write_failures + r.bit_rot + r.retries for r in rows]
        ), protocol
    # The crash count is the same in every cell, so the columns isolate
    # the storage faults.
    assert len({r.crashes for r in storage_sweep}) == 1


def test_network_faults_lose_no_run(network_sweep):
    series = _by_protocol(network_sweep)
    assert set(series) == {"appl-driven", "uncoordinated", "msg-logging"}
    for protocol, rows in series.items():
        assert [r.rate for r in rows] == list(DEFAULT_NETWORK_RATES)
        assert all(r.availability == 1.0 for r in rows), protocol
        clean = rows[0]
        assert clean.retransmits == clean.dropped == clean.duplicated == 0
        assert clean.overhead_ratio == 0.0
        assert _increasing([r.overhead_ratio for r in rows]), protocol
        assert _increasing([r.retransmits for r in rows]), protocol
    assert max(r.overhead_ratio for r in network_sweep) <= 0.63
