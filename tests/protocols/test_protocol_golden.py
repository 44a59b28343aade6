"""Golden per-protocol outcome digests under every fault class.

A refactor of the protocol layer or of recovery must not move a single
event, stat, stored byte or digest. Each registered protocol runs one
observed, replicated, retention-bounded ``ring_pipeline`` cell through
a crash, a lost write, bit rot, a dropped frame and a nested crash in
recovery; the SHA-256 of its ``CellOutcome`` (``spec_hash`` dropped,
as the benchmark harness does) must equal the recorded literal. Only a
change meant to alter a protocol's behaviour re-records one.
"""

import hashlib
import json

import pytest

from repro.bench.workloads import protocol_cells
from repro.campaign.executor import run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.lang.programs import program_source
from repro.protocols import PROTOCOL_CLASSES
from repro.runtime import FaultPlan
from repro.runtime.failures import (
    CrashEvent,
    FaultKind,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)

GOLDEN = {
    "appl-driven":
        "40f9fe3a2d48b50f32644bc0f9965a235fd83463d854a72c4f76dff493fe4f67",
    "sas":
        "01765183ba84b175a44acdfcb5916d762b33bba4fe94e62fbc94b57065ae2437",
    "cl":
        "f11f16ea671b6dae289cc15437d4f9b4bcde2cddf95ee9d75ce77a4d022844c3",
    "uncoordinated":
        "3f9f418dea9d2bddedab5b9370a863769e1392932857f120199324064001236a",
    "cic":
        "3a3a822cabef3df632c59bc0c1a8a2ed8cb0f5a62b673b35650611bb8b678ff2",
    "msg-logging":
        "acab2c3cabb4c3e214c38c182811a89781b6a7b9428f9e45cbf918d6d9ec6d48",
}

PROTOCOLS = tuple(name for name, cls in PROTOCOL_CLASSES.items() if cls)


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        crashes=[CrashEvent(time=16.0, rank=2)],
        max_failures=1,
        storage_faults=[
            StorageFaultEvent(time=8.0, rank=3, kind=FaultKind.WRITE_FAIL),
            StorageFaultEvent(
                time=15.0, rank=1, kind=FaultKind.BIT_ROT, replica=1
            ),
        ],
        network_faults=[NetworkFaultEvent(
            time=3.0, kind=NetworkFaultKind.DROP, src=0, dst=1
        )],
        recovery_faults=[RecoveryFaultEvent(
            recovery=0, rank=0, kind=RecoveryFaultKind.CRASH
        )],
    )


@pytest.fixture(scope="module")
def outcomes():
    workload = ScenarioSpec(
        label="ring_pipeline", program=program_source("ring_pipeline"),
        n_processes=4, params={"steps": 8},
    )
    cells = protocol_cells(
        workload, protocols=PROTOCOLS, period=5.0, storage_replicas=3,
        retain_k=3, observe=True, fault_plan=_fault_plan(),
    )
    result = run_campaign(cells, jobs=1)
    return {
        label.split("/", 1)[1]: cell for label, cell in result.cells.items()
    }


def _digest(outcome) -> str:
    data = outcome.to_json_dict()
    del data["spec_hash"]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_every_registered_protocol_has_a_golden_cell():
    assert set(GOLDEN) == set(PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_outcome_digest_is_golden(outcomes, protocol):
    outcome = outcomes[protocol]
    assert outcome.ok, outcome.error
    stats = outcome.stats
    # Every fault class struck the run the digest pins.
    assert (stats["failures"], stats["nested_crashes"]) == (1, 1)
    assert stats["storage_write_failures"] == stats["bit_rot_injected"] == 1
    assert stats["retransmits"] >= 1 and stats["completed"]
    assert _digest(outcome) == GOLDEN[protocol]
