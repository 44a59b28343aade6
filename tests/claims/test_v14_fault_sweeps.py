"""V14: storage and network faults cost time, never a run.

Two sweeps over ring_pipeline (n = 3, 4 seeds a rate), each a campaign
of protocol × rate × seed cells built by ``tools/regenerate_results.py``:

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

from ..test_tools import load_tool


def _by_protocol(rows):
    series = {}
    for row in rows:
        series.setdefault(row["protocol"], []).append(row)
    return series


def _increasing(values):
    return values == sorted(values) and values[-1] > values[0]


@pytest.fixture(scope="module")
def tool():
    return load_tool()


@pytest.fixture(scope="module")
def storage_sweep(tool):
    return tool.storage_sweep_rows()


@pytest.fixture(scope="module")
def network_sweep(tool):
    return tool.network_sweep_rows()


def test_storage_faults_lose_no_run(tool, storage_sweep):
    series = _by_protocol(storage_sweep)
    assert set(series) == {"appl-driven", "uncoordinated"}
    for protocol, rows in series.items():
        assert [r["rate"] for r in rows] == list(tool.STORAGE_RATES)
        assert all(r["avail"] == 1.0 for r in rows), protocol
        clean = rows[0]
        assert clean["wfail"] == clean["torn"] == 0
        assert clean["rot"] == clean["retry"] == clean["fb"] == 0
        assert _increasing([r["time"] for r in rows]), protocol
        assert _increasing(
            [r["wfail"] + r["rot"] + r["retry"] for r in rows]
        ), protocol
    # The crash count is the same in every cell, so the columns isolate
    # the storage faults.
    assert len({r["crash"] for r in storage_sweep}) == 1


def test_network_faults_lose_no_run(tool, network_sweep):
    series = _by_protocol(network_sweep)
    assert set(series) == {"appl-driven", "uncoordinated", "msg-logging"}
    for protocol, rows in series.items():
        assert [r["rate"] for r in rows] == list(tool.NETWORK_RATES)
        assert all(r["avail"] == 1.0 for r in rows), protocol
        clean = rows[0]
        assert clean["retx"] == clean["drop"] == clean["dup"] == 0
        assert clean["r"] == 0.0
        assert _increasing([r["r"] for r in rows]), protocol
        assert _increasing([r["retx"] for r in rows]), protocol
    assert max(r["r"] for r in network_sweep) <= 0.63
