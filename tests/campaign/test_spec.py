"""ScenarioSpec: serialisation, hashing, and the spec-driven factory."""

import dataclasses
import json

import pytest

from repro.campaign.spec import (
    ScenarioSpec,
    dump_campaign,
    load_campaign,
    quick_campaign,
)
from repro.errors import SimulationError
from repro.lang.programs import load_program, program_source
from repro.protocols import make_protocol
from repro.runtime.config import RunConfig, RuntimeCosts
from repro.runtime.engine import Simulation
from repro.runtime.failures import (
    CrashEvent,
    FaultKind,
    FaultPlan,
    NetworkFaultEvent,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)


def spec_with_everything() -> ScenarioSpec:
    return ScenarioSpec(
        label="full",
        program=program_source("ring_pipeline"),
        n_processes=3,
        params={"steps": 6},
        protocol="uncoordinated",
        period=6.0,
        seed=7,
        base_latency=0.4,
        storage_replicas=3,
        max_storage_retries=2,
        fault_plan=FaultPlan(
            crashes=[CrashEvent(time=9.0, rank=1)],
            max_failures=1,
            network_faults=[
                NetworkFaultEvent(
                    time=3.0, kind=NetworkFaultKind.DROP, src=0, dst=1
                ),
            ],
        ),
        observe=True,
        checkpoint_mode="pruned+delta",
    )


class TestSerialisation:
    def test_json_round_trip_is_identity(self):
        spec = spec_with_everything()
        again = ScenarioSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_json_dict_is_json_serialisable(self):
        spec = spec_with_everything()
        assert json.loads(json.dumps(spec.to_json_dict())) \
            == spec.to_json_dict()

    def test_unknown_key_rejected(self):
        data = spec_with_everything().to_json_dict()
        data["protocl"] = "appl-driven"
        with pytest.raises(SimulationError, match="protocl"):
            ScenarioSpec.from_json_dict(data)

    def test_empty_label_rejected(self):
        with pytest.raises(SimulationError, match="label"):
            ScenarioSpec(label="", program="program p:\n  pass")

    def test_campaign_file_round_trip(self):
        specs = quick_campaign()
        again = load_campaign(dump_campaign(specs))
        assert again == specs

    def test_campaign_file_accepts_bare_list(self):
        specs = quick_campaign()[:2]
        text = json.dumps([s.to_json_dict() for s in specs])
        assert load_campaign(text) == specs

    def test_bad_campaign_file_rejected(self):
        with pytest.raises(SimulationError, match="campaign"):
            load_campaign('{"not_cells": 1}')
        with pytest.raises(SimulationError, match="campaign"):
            load_campaign("not json at all")


class TestContentHash:
    def test_label_does_not_affect_hash(self):
        a = ScenarioSpec(label="a", program=program_source("pingpong"))
        b = ScenarioSpec(label="b", program=program_source("pingpong"))
        assert a.content_hash() == b.content_hash()

    def test_every_knob_affects_hash(self):
        base = spec_with_everything()
        variants = [
            ScenarioSpec.from_json_dict(
                {**base.to_json_dict(), "seed": 8}
            ),
            ScenarioSpec.from_json_dict(
                {**base.to_json_dict(), "protocol": "appl-driven"}
            ),
            ScenarioSpec.from_json_dict(
                {**base.to_json_dict(), "fault_plan": None}
            ),
            ScenarioSpec.from_json_dict(
                {**base.to_json_dict(), "checkpoint_mode": "full"}
            ),
        ]
        hashes = {base.content_hash()} | {
            v.content_hash() for v in variants
        }
        assert len(hashes) == 5

    def test_hash_survives_round_trip(self):
        spec = spec_with_everything()
        again = ScenarioSpec.from_json_dict(spec.to_json_dict())
        assert again.content_hash() == spec.content_hash()

    def test_checkpoint_mode_defaults_to_full(self):
        # Pre-feature campaign files carry no checkpoint_mode key.
        data = spec_with_everything().to_json_dict()
        del data["checkpoint_mode"]
        assert ScenarioSpec.from_json_dict(data).checkpoint_mode == "full"


class TestGoldenIdentity:
    """Literals recorded when the JSON form last lost keys.

    ``content_hash`` keys journals and caches and ``to_json_dict``'s key
    order is the text of every campaign file, so neither may move
    unless a field leaves the schema (``record_compute_events`` and
    ``transport`` did; see :class:`TestRetiredKeys`).
    """

    QUICK_HASHES = {
        "ring_pipeline/appl-driven":
            "f996b381f2c097294b8633022e7e35e7a21709ea99032c9b5878dcea8face4c2",
        "ring_pipeline/uncoordinated":
            "680032af8ecac93121fbbcf9085438d526ac6a767ead6e22f2ce9cf60ab715b0",
        "pingpong/appl-driven":
            "73de3fafd4dfc99d7529ee51108e160912a89b4be2e478bc13e2a51e22465ebc",
        "pingpong/uncoordinated":
            "ffc60db66975e6fc4e1c2a3230d74c43ecbbad4ba111dc9c2b01968373e67962",
        "token_ring/appl-driven":
            "0904f00901a6a033ae49b2d4bdbf10f9084de503fbf68050d14e83aefd6f636c",
        "token_ring/uncoordinated":
            "3d6d825ba0fe7df07f572209274511dd7facfd02e3435118559144510e803662",
    }

    @staticmethod
    def populated() -> ScenarioSpec:
        return ScenarioSpec(
            label="golden",
            program=program_source("ring_pipeline"),
            n_processes=3,
            params={"steps": 6},
            protocol="uncoordinated",
            period=6.0,
            seed=7,
            base_latency=0.4,
            storage_replicas=3,
            max_storage_retries=2,
            max_steps=100_000,
            fault_plan=FaultPlan(
                crashes=[CrashEvent(time=9.0, rank=1)],
                max_failures=2,
                storage_faults=[StorageFaultEvent(
                    time=5.0, rank=0, kind=FaultKind.BIT_ROT,
                    number=2, replica=1,
                )],
                network_faults=[NetworkFaultEvent(
                    time=3.0, kind=NetworkFaultKind.DELAY,
                    src=0, dst=1, delay=0.5,
                )],
                recovery_faults=[RecoveryFaultEvent(
                    recovery=0, rank=2,
                    kind=RecoveryFaultKind.READ_FAULT, attempts=2,
                )],
            ),
            costs=RuntimeCosts(checkpoint_overhead=1.5, recovery_overhead=2.5),
            observe=True,
            retain_k=4,
            backend="reference",
            checkpoint_mode="pruned+delta",
        )

    def test_quick_campaign_hashes(self):
        assert {
            spec.label: spec.content_hash() for spec in quick_campaign()
        } == self.QUICK_HASHES

    def test_fully_populated_spec(self):
        spec = self.populated()
        assert spec.content_hash() == (
            "d5cef76fb0f5358d46117a9d0136701506f3a9cb5efbcb61d8c50ab17223481a"
        )
        assert list(spec.to_json_dict()) == [
            "version", "label", "program", "n_processes", "params",
            "protocol", "period", "seed", "base_latency",
            "storage_replicas", "max_storage_retries",
            "max_steps", "observe", "retain_k",
            "backend", "checkpoint_mode", "fault_plan", "costs",
        ]
        assert ScenarioSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_every_field_is_in_the_json_form(self):
        names = {f.name for f in dataclasses.fields(ScenarioSpec)}
        assert names == set(self.populated().to_json_dict()) - {"version"}


#: A campaign file written before ``record_compute_events`` and
#: ``transport`` left the spec (``dump_campaign`` output, verbatim).
LEGACY_CAMPAIGN = """{
  "cells": [
    {
      "version": 1,
      "label": "legacy",
      "program": "x = 1\\ncheckpoint\\n",
      "n_processes": 2,
      "params": {},
      "protocol": "appl-driven",
      "period": 10.0,
      "seed": 0,
      "base_latency": 0.5,
      "storage_replicas": 1,
      "max_storage_retries": 3,
      "record_compute_events": false,
      "max_steps": 2000000,
      "observe": false,
      "retain_k": null,
      "backend": "compiled",
      "checkpoint_mode": "full",
      "fault_plan": {
        "crashes": [
          {
            "time": 1.0,
            "rank": 1
          }
        ],
        "storage_faults": [],
        "network_faults": [],
        "recovery_faults": []
      },
      "transport": null,
      "costs": null
    }
  ]
}
"""


class TestRetiredKeys:
    """Files written while a removed field existed still load."""

    def test_legacy_campaign_file_loads(self):
        [spec] = load_campaign(LEGACY_CAMPAIGN)
        assert spec == ScenarioSpec(
            label="legacy", program="x = 1\ncheckpoint\n", n_processes=2,
            fault_plan=FaultPlan.single(1.0, 1),
        )
        # The re-dumped file is the old one minus the two retired keys.
        legacy = json.loads(LEGACY_CAMPAIGN)["cells"][0]
        del legacy["record_compute_events"], legacy["transport"]
        assert spec.to_json_dict() == legacy

    @pytest.mark.parametrize("key, value", [
        ("record_compute_events", True),
        ("record_compute_events", 0),
        ("transport", {"rto_factor": 4.0}),
        ("transport", {}),
    ], ids=str)
    def test_any_other_value_is_refused(self, key, value):
        cell = json.loads(LEGACY_CAMPAIGN)["cells"][0] | {key: value}
        with pytest.raises(SimulationError, match=f"retired key '{key}'"):
            ScenarioSpec.from_json_dict(cell)


BAD_KNOBS = [
    ({"backend": "jit"}, "unknown backend 'jit'"),
    ({"checkpoint_mode": "tiny"}, "unknown checkpoint_mode 'tiny'"),
    # The single-technique modes are gone: minimal content is one mode.
    ({"checkpoint_mode": "delta"}, "unknown checkpoint_mode 'delta'"),
    ({"checkpoint_mode": "pruned"}, "unknown checkpoint_mode 'pruned'"),
    ({"storage_replicas": 0}, "need at least one storage replica, got 0"),
]

#: Knobs whose bad values used to load and then fail every cell at run
#: time (with a storage or channel error, or a misreported livelock).
BAD_LOADED_KNOBS = [
    ({"retain_k": 1}, "retain_k must be >= 2"),
    ({"max_steps": 0}, "max_steps must be >= 1, got 0"),
    ({"max_storage_retries": -1}, "max_storage_retries must be >= 0, got -1"),
    ({"base_latency": -1.0}, "base_latency must be >= 0, got -1.0"),
]

#: Values only wrong for the cell's own protocol, size or storage, which
#: used to load and then fail the cell at run time.
BAD_CELLS = [
    ({"protocol": "nope"}, "unknown protocol 'nope'"),
    ({"protocol": "sas", "period": 0.0}, "period must be positive, got 0.0"),
    ({"protocol": "cic", "period": -1.0}, "period must be positive, got -1.0"),
    ({"n_processes": 0}, "need at least one process, got 0"),
    (
        {"fault_plan": {"crashes": [{"time": 1.0, "rank": 2}]}},
        "crash at t=1.0 targets rank 2",
    ),
    (
        {"fault_plan": {"network_faults": [
            {"time": 1.0, "kind": "drop", "src": 0, "dst": 5},
        ]}},
        "network fault at t=1.0 targets channel 0->5",
    ),
    (
        {"fault_plan": {"storage_faults": [
            {"time": 1.0, "rank": 0, "kind": "bit-rot", "replica": 1},
        ]}},
        "storage fault at t=1.0 targets replica 1",
    ),
]


class TestOneValidationSite:
    @pytest.mark.parametrize("bad, text", BAD_KNOBS, ids=lambda v: str(v))
    def test_bad_knob_fails_identically_everywhere(self, bad, text):
        def spec_build():
            ScenarioSpec(
                label="x", program=program_source("pingpong"), **bad
            ).build()

        messages = []
        for enter in (
            lambda: RunConfig(**bad),
            lambda: Simulation(load_program("pingpong"), 2, **bad),
            spec_build,
        ):
            with pytest.raises(SimulationError) as excinfo:
                enter()
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1
        assert messages[0].startswith(text)

    @pytest.mark.parametrize(
        "bad, text", BAD_LOADED_KNOBS, ids=lambda v: str(v)
    )
    def test_spec_with_bad_knob_fails_to_load(self, bad, text):
        data = ScenarioSpec(
            label="x", program=program_source("pingpong")
        ).to_json_dict() | bad
        with pytest.raises(SimulationError) as excinfo:
            ScenarioSpec.from_json_dict(data)
        assert str(excinfo.value).startswith(text)

    @pytest.mark.parametrize("bad, text", BAD_CELLS, ids=lambda v: str(v))
    def test_bad_cell_fails_to_load(self, bad, text):
        cell = ScenarioSpec(
            label="x", program=program_source("pingpong"), n_processes=2
        ).to_json_dict() | bad
        with pytest.raises(SimulationError) as excinfo:
            load_campaign(json.dumps({"cells": [cell]}))
        assert str(excinfo.value).startswith(text)

    def test_unknown_knob_is_a_type_error(self):
        with pytest.raises(TypeError, match="frobnicate"):
            Simulation(load_program("pingpong"), 2, frobnicate=1)


class TestSpecFactory:
    def test_from_spec_matches_direct_construction(self):
        spec = ScenarioSpec(
            label="cell",
            program=program_source("ring_pipeline"),
            n_processes=3,
            params={"steps": 5},
            protocol="uncoordinated",
            period=6.0,
            seed=3,
        )
        via_spec = spec.build().run()
        direct = Simulation(
            load_program("ring_pipeline"),
            3,
            params={"steps": 5},
            protocol=make_protocol("uncoordinated", period=6.0),
            seed=3,
        ).run()
        assert via_spec.stats.as_dict() == direct.stats.as_dict()
        assert via_spec.final_env == direct.final_env
        assert via_spec.completion_time == direct.completion_time

    def test_build_is_fresh_each_time(self):
        spec = quick_campaign()[0]
        first = spec.build().run()
        second = spec.build().run()
        assert first.stats.as_dict() == second.stats.as_dict()


class TestProtocolRegistry:
    def test_none_returns_no_protocol(self):
        assert make_protocol("none") is None

    def test_quick_campaign_labels_unique(self):
        specs = quick_campaign()
        assert len({s.label for s in specs}) == len(specs)
