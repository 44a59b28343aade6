"""The fault-event codec: JSON and text forms round-trip every plan.

Plans come from the three places that make them: the Poisson drawer,
the chaos harness and the CLI's text forms. The text writer here is an
independent oracle of the documented form (``KIND`` first, then the
other fields in declaration order, ``None`` as an empty field).
"""

import json
from dataclasses import fields

import pytest

from repro.cli import build_parser
from repro.runtime.chaos import ChaosConfig, draw_schedule
from repro.runtime.failures import (
    EVENT_LISTS,
    CrashEvent,
    FaultKind,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
    encode_event,
    exponential_fault_plan,
    parse_event,
)


def text_of(event) -> str:
    data = encode_event(event)
    order = sorted(data, key=lambda key: key != "kind")
    return ":".join(
        "" if data[key] is None else str(data[key]) for key in order
    )


NETWORK_RATES = {
    "drop_rate": 0.05, "duplicate_rate": 0.05, "delay_rate": 0.05,
    "corrupt_rate": 0.05, "partition_rate": 0.05,
}
FAMILIES = {
    "crashes": {"failure_rate": 0.05},
    "storage": {"storage_fault_rate": 0.1},
    **{name: {name: rate} for name, rate in NETWORK_RATES.items()},
    "all": {"failure_rate": 0.05, "storage_fault_rate": 0.1,
            **NETWORK_RATES},
}


def drawn_plans():
    for family, rates in FAMILIES.items():
        for seed in (0, 1):
            yield f"draw-{family}-{seed}", exponential_fault_plan(
                3, 40.0, seed=seed, max_failures=2, **rates
            )
    config = ChaosConfig(recovery_fault_probability=0.8)
    for seed in range(6):
        yield f"chaos-{seed}", draw_schedule(seed, config)


PLANS = dict(drawn_plans())


def test_every_source_draws_every_list():
    for name in EVENT_LISTS:
        assert any(getattr(plan, name) for plan in PLANS.values()), name
    kinds = {f.kind for f in PLANS["draw-all-0"].network_faults}
    assert kinds == set(NetworkFaultKind)


@pytest.mark.parametrize("label", sorted(PLANS))
def test_json_round_trip(label):
    plan = PLANS[label]
    text = json.dumps(plan.to_json_dict())
    assert FaultPlan.from_json_dict(json.loads(text)) == plan


@pytest.mark.parametrize("label", sorted(PLANS))
def test_text_round_trip(label):
    plan = PLANS[label]
    lists = {}
    for name in EVENT_LISTS:
        lists[name] = []
        for event in getattr(plan, name):
            given = "crashes" if name == "crashes" else None
            parsed_name, parsed = parse_event(text_of(event), given)
            assert (parsed_name, parsed) == (name, event)
            lists[name].append(parsed)
    assert FaultPlan(max_failures=plan.max_failures, **lists) == plan


#: Strings the CLI has always accepted, with the events they stand for.
CLI_STRINGS = [
    ("--crash", "7.0:2", CrashEvent(time=7.0, rank=2)),
    ("--crash", "5:0", CrashEvent(time=5.0, rank=0)),
    ("--fault", "bit-rot:5:0::2", StorageFaultEvent(
        time=5.0, rank=0, kind=FaultKind.BIT_ROT, replica=2)),
    ("--fault", "bit-rot:19:2:7", StorageFaultEvent(
        time=19.0, rank=2, kind=FaultKind.BIT_ROT, number=7)),
    ("--fault", "torn-write:0:0:6", StorageFaultEvent(
        time=0.0, rank=0, kind=FaultKind.TORN_WRITE, number=6)),
    ("--fault", "write-fail:1.5:1:3:1", StorageFaultEvent(
        time=1.5, rank=1, kind=FaultKind.WRITE_FAIL, number=3, replica=1)),
    ("--fault", "transient:2:1", StorageFaultEvent(
        time=2.0, rank=1, kind=FaultKind.TRANSIENT)),
    ("--fault", "transient:2:1:::3", StorageFaultEvent(
        time=2.0, rank=1, kind=FaultKind.TRANSIENT, attempts=3)),
    ("--fault", "drop:3.0:0:1", NetworkFaultEvent(
        time=3.0, kind=NetworkFaultKind.DROP, src=0, dst=1)),
    ("--fault", "duplicate:5.0:1:2", NetworkFaultEvent(
        time=5.0, kind=NetworkFaultKind.DUPLICATE, src=1, dst=2)),
    ("--fault", "delay:3:0:1:0.5", NetworkFaultEvent(
        time=3.0, kind=NetworkFaultKind.DELAY, src=0, dst=1, delay=0.5)),
    ("--fault", "corrupt:4:2:0", NetworkFaultEvent(
        time=4.0, kind=NetworkFaultKind.CORRUPT, src=2, dst=0)),
    ("--fault", "partition:4:0:2", NetworkFaultEvent(
        time=4.0, kind=NetworkFaultKind.PARTITION, src=0, dst=2)),
    ("--fault", "heal:10.0:0:2", NetworkFaultEvent(
        time=10.0, kind=NetworkFaultKind.HEAL, src=0, dst=2)),
    ("--fault", "crash-in-recovery:0:1:2", RecoveryFaultEvent(
        recovery=0, rank=1, kind=RecoveryFaultKind.CRASH, attempts=2)),
    ("--fault", "restore-read-fail:1:2", RecoveryFaultEvent(
        recovery=1, rank=2, kind=RecoveryFaultKind.READ_FAULT)),
    ("--fault", "control-lost:0:0:3", RecoveryFaultEvent(
        recovery=0, rank=0, kind=RecoveryFaultKind.CONTROL_LOST,
        attempts=3)),
]


def _event_type_name(event) -> str:
    return next(
        name for name, spec in EVENT_LISTS.items()
        if isinstance(event, spec.event)
    )


@pytest.mark.parametrize("flag, text, event", CLI_STRINGS)
def test_cli_string_decodes_to_its_event(flag, text, event):
    args = build_parser().parse_args(
        ["simulate", "@ring_pipeline", flag, text]
    )
    parsed = (args.crash if flag == "--crash" else args.fault)[0]
    assert parsed == (_event_type_name(event), event)
    assert [type(getattr(parsed[1], f.name)) for f in fields(event)] == [
        type(getattr(event, f.name)) for f in fields(event)
    ]


@pytest.mark.parametrize("flag, text", [
    ("--crash", "oops"),
    ("--crash", "1:2:3"),
    ("--fault", "bogus-kind:0:1"),
    ("--fault", "drop:oops:0:1"),
    ("--fault", "drop:3.0:0"),
    ("--fault", "write-fail:1:1:2:0:1:9"),
    ("--fault", "crash-in-recovery:0:1:2:3"),
    ("--fault", "write-fail:1:1:1.5"),
])
def test_malformed_cli_string_rejected(flag, text):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "@ring_pipeline", flag, text])
