"""The rollup reads the registry the run folded; replaying the log defines it.

An observed campaign cell folds its live event log into a registry
(``Observability.metrics``), and its outcome carries that registry's
dict form as a side channel (``CellOutcome.metrics``) which
``cell_metrics`` returns as is. An outcome that arrived as JSON — a
journal-served cell on resume, a results file — has no side channel and
feeds its parsed ``events_jsonl`` through the same fold. The two must
agree to the byte, number *types* included; replay is the oracle here. Covered: the differential
over all six protocols x the fault classes ``chaos_recovery`` draws
(crash, frame faults, a healed partition, recovery-time faults, storage
write faults and bit rot), the error outcomes, ``jobs`` and resume
identity of a whole rollup, and a pin that a fresh observed campaign
never decodes its own log.
"""

import functools
import json
import pickle
import random
from dataclasses import replace

import pytest

from repro.campaign.executor import CellOutcome, _campaign_cell, run_campaign
from repro.campaign.spec import ScenarioSpec
from repro.lang.programs import program_source
from repro.obs import MetricsCollector, MetricsRegistry, ObsEvent
from repro.obs.export import events_to_jsonl, read_event_log
from repro.obs.metrics import _HANDLERS
from repro.obs.rollup import campaign_rollup, cell_metrics
from repro.runtime.chaos import ChaosConfig, draw_schedule
from repro.runtime.recovery import RecoverySupervisor
from repro.runtime.failures import (
    FaultKind,
    FaultPlan,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    StorageFaultEvent,
)

PROTOCOLS = (
    "appl-driven", "sas", "cl", "cic", "uncoordinated", "msg-logging",
)
PROGRAMS = ("ring_pipeline", "jacobi", "token_ring", "stencil_1d")
SEEDS = (0, 1, 2, 3)
N = 4
REPLICAS = 3
DRAW = ChaosConfig(
    n_processes=N, crash_probability=1.0, recovery_fault_probability=0.6,
)


def faulted_spec(protocol, seed, **overrides):
    """One ``chaos_recovery``-shaped observed cell, drawn from *seed*.

    The chaos harness's seeded draw supplies the crash, the frame
    faults, the partition and the recovery-time faults; storage faults
    (which it does not draw) are added from the same seed.
    """
    plan = draw_schedule(seed, DRAW)
    rng = random.Random(seed)
    storage = [
        StorageFaultEvent(
            time=round(rng.uniform(0.0, 24.0), 6), rank=rng.randrange(N),
            kind=kind,
        )
        for kind in (
            FaultKind.WRITE_FAIL, FaultKind.TORN_WRITE, FaultKind.TRANSIENT,
        )
        if rng.random() < 0.5
    ]
    storage.append(StorageFaultEvent(
        time=round(rng.uniform(0.0, plan.crashes[0].time), 6),
        rank=rng.randrange(N), kind=FaultKind.BIT_ROT,
        replica=rng.randrange(REPLICAS),
    ))
    knobs = dict(
        label=f"seed{seed}/{protocol}",
        program=program_source(PROGRAMS[seed % len(PROGRAMS)]),
        n_processes=N, params={"steps": 8}, protocol=protocol, period=6.0,
        seed=3, storage_replicas=REPLICAS,
        retain_k=None if protocol == "cic" else 4,
        fault_plan=replace(plan, storage_faults=storage), observe=True,
        checkpoint_mode="pruned+delta" if seed % 2 else "full",
    )
    return ScenarioSpec(**(knobs | overrides))


@functools.cache
def outcome_of(protocol, seed):
    return _campaign_cell(faulted_spec(protocol, seed))


def from_json(outcome):
    """*outcome* as a journal or a results file would hand it back."""
    return CellOutcome.from_json_dict(
        json.loads(json.dumps(outcome.to_json_dict()))
    )


def dumps(metrics):
    return json.dumps(metrics, sort_keys=True)


def assert_live_equals_replay(outcome):
    replayed = from_json(outcome)
    assert replayed.metrics is None
    assert replayed == outcome
    assert dumps(cell_metrics(outcome)) == dumps(cell_metrics(replayed))


def sections(rollup):
    """The deterministic part of a rollup, as the bytes it is written as."""
    return json.dumps(
        {key: rollup[key] for key in ("aggregate", "per_cell")},
        indent=2, sort_keys=True,
    )


class TestLiveEqualsReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_under_drawn_faults(self, protocol, seed):
        outcome = outcome_of(protocol, seed)
        assert outcome.metrics is not None
        assert cell_metrics(outcome) is outcome.metrics
        assert outcome.metrics["events_total"]["value"] > 0
        assert "stats.completed" in outcome.metrics
        assert_live_equals_replay(outcome)

    def test_the_grid_reaches_every_fault_class(self):
        # The differential is only as good as what the draws exercise.
        seen = set()
        for protocol in PROTOCOLS:
            for seed in SEEDS:
                seen.update(outcome_of(protocol, seed).metrics)
        assert seen >= {
            "engine.failure", "engine.recovery-retry", "engine.nested-crash",
            "engine.control-lost", "transport.drop", "transport.corrupt",
            "transport.duplicate", "transport.delay", "storage.write-fail",
            "storage.torn-write", "storage.bit-rot", "storage.gc",
            "protocol.recovery", "span.recovery.attempt.sim_dur",
            "recovery_backoff", "rollback_depth", "checkpoint_latency",
            "retransmit_rate", "snapshot_bytes_dist",
        }

    def test_unrecoverable_verdict(self):
        plan = FaultPlan(
            crashes=[(12.0, 1)],
            recovery_faults=[RecoveryFaultEvent(
                recovery=0, rank=1, kind=RecoveryFaultKind.CRASH, attempts=8,
            )],
        )
        outcome = _campaign_cell(
            faulted_spec("appl-driven", 0, fault_plan=plan)
        )
        assert outcome.error is None and not outcome.ok
        assert outcome.metrics["stats.unrecoverable"]["value"] == 1
        assert outcome.metrics["unrecoverable_total"]["value"] == 1
        assert_live_equals_replay(outcome)

    def test_engine_error_keeps_events_and_the_live_registry(self):
        # Every rank ends blocked on a receive nobody sends: the faulted
        # run plays out in full, then raises a ``ReproError``.
        deadlocks = (
            program_source("ring_pipeline").rstrip("\n")
            + "\n    y = recv((myrank + 1) % nprocs)\n"
        )
        outcome = _campaign_cell(
            faulted_spec("appl-driven", 1, program=deadlocks)
        )
        assert outcome.error.startswith("DeadlockError:")
        assert outcome.stats is None
        assert len(read_event_log(outcome.events_jsonl)) > 100
        assert outcome.metrics["cells_errored"]["value"] == 1
        assert outcome.metrics["engine.failure"]["value"] == 1
        assert not any(name.startswith("stats.") for name in outcome.metrics)
        assert_live_equals_replay(outcome)

    def test_cell_that_fails_to_build_has_a_header_only_log(self):
        # A bad protocol no longer gets this far (the spec refuses it);
        # source that does not parse still fails inside the build.
        outcome = _campaign_cell(
            faulted_spec("appl-driven", 0, program="program p(:\n")
        )
        assert outcome.error.startswith("ParseError:")
        assert read_event_log(outcome.events_jsonl) == []
        assert outcome.metrics == {
            "cells_errored": {"type": "counter", "value": 1},
        }
        assert_live_equals_replay(outcome)

    def test_unexpected_error_drops_the_registry_with_the_events(
        self, monkeypatch
    ):
        # The bus has seen half a run by the time recovery blows up; the
        # outcome keeps no events, so it must keep no registry either.
        def bug(self, rank, time):
            raise RuntimeError("bug in recovery")

        monkeypatch.setattr(RecoverySupervisor, "recover", bug)
        outcome = _campaign_cell(faulted_spec("appl-driven", 0))
        assert outcome.error == "unexpected: RuntimeError: bug in recovery"
        assert outcome.events_jsonl is None and outcome.metrics is None
        assert cell_metrics(outcome) == {
            "cells_errored": {"type": "counter", "value": 1},
        }
        assert_live_equals_replay(outcome)

    def test_metric_type_conflict_ends_the_cell_unexpectedly(
        self, monkeypatch
    ):
        # A kind whose handler takes a name another kind registers as
        # a different type: the fold at the end of the run raises, and
        # the cell ends as an unexpected error with no events.
        def clash(registry):
            registry.gauge("frames_total")

        monkeypatch.setitem(_HANDLERS, ("engine", "send"), clash)
        outcome = _campaign_cell(faulted_spec("appl-driven", 0))
        assert outcome.error.startswith(
            "unexpected: TypeError: metric 'frames_total' already registered"
        )
        assert outcome.events_jsonl is None and outcome.metrics is None

    def test_unobserved_cell_has_no_side_channel(self):
        outcome = _campaign_cell(
            faulted_spec("appl-driven", 0, observe=False)
        )
        assert outcome.ok and outcome.metrics is None
        metrics = cell_metrics(outcome)
        assert metrics and all(name.startswith("stats.") for name in metrics)

    def test_int_valued_times_do_not_change_number_types(self):
        # A live event may carry an int time (a crash drawn at ``9``);
        # the log writes ``9`` and replay reads ``9.0``. A histogram
        # min of ``4`` live against ``4.0`` replayed is a byte diff.
        events = [
            ObsEvent(
                seq=seq, category="engine", name="checkpoint", rank=0,
                time=time, clock=(seq,), fields={"checkpoint_number": seq},
            )
            for seq, time in enumerate((0, 4, 9, 15.5))
        ]
        registries = []
        for stream in (events, read_event_log(events_to_jsonl(events))):
            registry = MetricsRegistry()
            MetricsCollector(registry).feed(stream)
            registries.append(dumps(registry.as_dict()))
        assert registries[0] == registries[1]
        assert '"min": 4.0' in registries[0]


class TestSideChannel:
    def test_metrics_stay_out_of_json_equality_and_repr(self):
        outcome = outcome_of("appl-driven", 0)
        bare = replace(outcome, metrics=None)
        assert "metrics" not in outcome.to_json_dict()
        assert outcome.to_json_dict() == bare.to_json_dict()
        assert outcome == bare
        assert repr(outcome) == repr(bare)

    def test_metrics_cross_a_worker_boundary_by_pickle(self):
        outcome = outcome_of("sas", 1)
        shipped = pickle.loads(pickle.dumps(outcome))
        assert shipped == outcome
        assert dumps(shipped.metrics) == dumps(outcome.metrics)


class TestRollupIdentity:
    """One observed campaign: serial, pooled, and resumed from a journal."""

    SPECS = [
        faulted_spec(protocol, seed)
        for seed, protocol in enumerate(PROTOCOLS)
    ]

    @pytest.fixture(scope="class")
    def serial(self):
        return run_campaign(self.SPECS, jobs=1)

    def test_fresh_cells_serve_the_live_registry(self, serial):
        assert all(
            cell.metrics is not None for cell in serial.cells.values()
        )

    def test_pooled_run_rolls_up_identically(self, serial):
        pooled = run_campaign(self.SPECS, jobs=2)
        assert all(
            cell.metrics is not None for cell in pooled.cells.values()
        )
        assert pooled.to_json() == serial.to_json()
        assert sections(campaign_rollup(pooled)) == (
            sections(campaign_rollup(serial))
        )

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_resumed_run_rolls_up_identically(self, serial, tmp_path, jobs):
        journal = tmp_path / "journal.jsonl"
        half = len(self.SPECS) // 2
        run_campaign(self.SPECS[:half], jobs=1, journal_path=journal)
        resumed = run_campaign(self.SPECS, jobs=jobs, journal_path=journal)
        assert resumed.executor.resume_hits == half
        # Journal-served cells replay their log, the rest are live.
        assert [
            cell.metrics is None for cell in resumed.cells.values()
        ] == [True] * half + [False] * (len(self.SPECS) - half)
        assert resumed.to_json() == serial.to_json()
        assert sections(campaign_rollup(resumed)) == (
            sections(campaign_rollup(serial))
        )


class TestNothingDecodesOnTheFreshPath:
    def test_fresh_observed_campaign_never_reads_its_own_log(
        self, monkeypatch
    ):
        def no_decode(*args, **kwargs):
            raise AssertionError("a fresh cell's event log was decoded")

        import repro.obs.export

        monkeypatch.setattr(repro.obs.export, "read_event_log", no_decode)
        monkeypatch.setattr(
            ObsEvent, "from_dict", classmethod(no_decode)
        )
        specs = TestRollupIdentity.SPECS[:3]
        result = run_campaign(specs, jobs=1)
        rollup = campaign_rollup(result)
        assert set(rollup["per_cell"]) == {spec.label for spec in specs}
        assert rollup["aggregate"]["events_total"]["value"] == sum(
            cell.events_jsonl.count("\n") - 1
            for cell in result.cells.values()
        )
        # The pin bites: an outcome that came back as JSON does decode.
        with pytest.raises(AssertionError, match="was decoded"):
            cell_metrics(from_json(result.cells[specs[0].label]))
