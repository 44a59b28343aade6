"""End-to-end chaos tests: randomized fault schedules against all protocols.

The acceptance bar from the paper's robustness story: the reliable
transport must make an adversarial network invisible to every
checkpointing protocol. We draw hundreds of seed-deterministic
schedules (drops, duplicates, delays, corruption, partitions, crashes),
replay each against every protocol that recovers, and require
completion, consistency of the recovery lines each protocol claims on
storage, and a final state identical to the fault-free baseline. Each
replay is a campaign cell whose verdict is its outcome's ``error``. A
deliberately-broken transport (receiver dedup disabled) must be
*caught* by the same harness and shrunk to a minimal counterexample.
"""

import inspect
from dataclasses import replace

import pytest

from repro.campaign import CellOutcome
from repro.errors import SimulationError
from repro.lang.programs import program_source, ring_pipeline
from repro.protocols import (
    PROTOCOL_CLASSES,
    RECOVERING_PROTOCOLS,
    ApplicationDrivenProtocol,
    InducedProtocol,
    protocol_names,
)
from repro.runtime import chaos
from repro.runtime.chaos import (
    CUT_BROKEN,
    DIVERGED,
    ChaosConfig,
    _chaos_spec,
    _replay,
    _twin_env,
    cell_label,
    chaos_sweep,
    describe,
    draw_schedule,
    dump_failure_artifacts,
    run_schedule,
    shrink_schedule,
    unrecoverable,
)
from repro.runtime.engine import Simulation
from repro.runtime.failures import (
    FaultPlan,
    NetworkFaultKind,
    RecoveryFaultEvent,
    RecoveryFaultKind,
    exponential_fault_plan,
)
from repro.runtime.hooks import NullProtocol
from repro.runtime.transport import TransportConfig

CONFIG = ChaosConfig()


def failed_verdicts(result) -> dict[str, str]:
    """Label -> error of every cell of a sweep whose contract broke."""
    return {
        label: outcome.error
        for label, outcome in result.cells.items()
        if outcome.error is not None
    }


class TestScheduleDrawing:
    def test_same_seed_same_schedule(self):
        for seed in range(20):
            assert draw_schedule(seed, CONFIG) == draw_schedule(seed, CONFIG)

    def test_different_seeds_differ(self):
        plans = {repr(draw_schedule(seed, CONFIG)) for seed in range(20)}
        assert len(plans) > 15  # near-certainly all distinct

    def test_schedules_are_valid_plans(self):
        # FaultPlan validates at construction; drawing must never trip it.
        for seed in range(50):
            plan = draw_schedule(seed, CONFIG)
            assert plan.network_faults or plan.crashes

    def test_draw_respects_config_bounds(self):
        cfg = ChaosConfig(horizon=5.0, max_events=3, crash_probability=0.0)
        for seed in range(30):
            plan = draw_schedule(seed, cfg)
            assert not plan.crashes
            one_shots = [
                e for e in plan.network_faults
                if e.kind is not NetworkFaultKind.PARTITION
                and e.kind is not NetworkFaultKind.HEAL
            ]
            assert len(one_shots) <= 3
            for event in one_shots:
                assert 0.0 <= event.time < 5.0


class TestChaosSweep:
    """The headline property: 420 random schedules, zero violations."""

    @pytest.mark.parametrize("protocol", RECOVERING_PROTOCOLS)
    def test_seventy_schedules_per_protocol_all_hold(self, protocol):
        # 70 seeds x 6 protocols = 420 randomized schedules in total.
        result = chaos_sweep(range(70), protocols=(protocol,))
        assert len(result.cells) == 70
        failures = failed_verdicts(result)
        assert not failures, failures

    @pytest.mark.parametrize("protocol", RECOVERING_PROTOCOLS)
    def test_minimized_content_sweep_holds(self, protocol):
        # The same 420-schedule budget with liveness-pruned, delta-
        # encoded checkpoint content: content minimization must not
        # flip a single chaos verdict (the retention invariant already
        # accounts for pinned delta ancestors).
        config = ChaosConfig(checkpoint_mode="pruned+delta")
        result = chaos_sweep(
            range(70), protocols=(protocol,), config=config
        )
        assert len(result.cells) == 70
        failures = failed_verdicts(result)
        assert not failures, failures

    def test_outcome_reports_fault_counts(self):
        plan = draw_schedule(3, CONFIG)
        outcome = run_schedule(plan, config=CONFIG)
        assert isinstance(outcome, CellOutcome)
        assert describe(outcome, plan) == (
            f"ok: {len(plan.network_faults)} network fault(s), "
            f"{len(plan.effective())} crash(es)"
        )

    def test_availability_one_at_low_drop_rates(self):
        # Paper-style availability claim: message-drop rates up to 10%
        # of traffic never prevent a run from completing.
        completed = total = 0
        for rate in (0.02, 0.05, 0.1):
            for seed in range(3):
                plan = exponential_fault_plan(
                    3, 30.0, drop_rate=rate, seed=seed
                )
                outcome = run_schedule(plan, config=CONFIG)
                total += 1
                completed += outcome.stats["completed"]
                assert outcome.error is None, outcome.error
        assert completed == total  # availability 1.0


class TestFaultFreeTwin:
    """The final-state check's baseline is run, never cached globally."""

    def _count_twins(self, monkeypatch) -> list:
        from repro.runtime import chaos

        calls = []
        original = chaos._twin_env

        def counting(spec):
            calls.append(spec.protocol)
            return original(spec)

        monkeypatch.setattr(chaos, "_twin_env", counting)
        return calls

    def test_sweep_runs_one_twin_per_protocol(self, monkeypatch):
        calls = self._count_twins(monkeypatch)
        result = chaos_sweep(
            range(4), protocols=("appl-driven", "msg-logging")
        )
        assert len(result.cells) == 8
        assert calls == ["appl-driven", "msg-logging"]

    def test_shrink_candidates_reuse_the_dump_twin(
        self, monkeypatch, tmp_path
    ):
        broken = replace(CONFIG, transport=TransportConfig(dedup=False))
        calls = self._count_twins(monkeypatch)
        paths = dump_failure_artifacts(
            draw_schedule(0, broken), protocol="appl-driven",
            config=broken, out_dir=tmp_path, max_shrink_runs=10,
        )
        assert "shrunk" in paths
        assert calls == ["appl-driven"]


class TestByteIdenticalReplay:
    def test_identical_seed_and_plan_identical_result(self):
        plan = draw_schedule(7, CONFIG)

        def run():
            return Simulation(
                ring_pipeline(),
                CONFIG.n_processes,
                params={"steps": CONFIG.steps},
                protocol=ApplicationDrivenProtocol(),
                fault_plan=plan,
                seed=CONFIG.seed,
            ).run()

        first, second = run(), run()
        assert repr(first.stats) == repr(second.stats)
        assert first.completion_time == second.completion_time
        assert first.final_env == second.final_env
        assert [repr(e) for e in first.trace.events] == [
            repr(e) for e in second.trace.events
        ]

    def test_replay_includes_retransmission_traffic(self):
        # The identity above must cover transport accounting, and a
        # chaotic plan must actually exercise it.
        plan = draw_schedule(7, CONFIG)
        result = Simulation(
            ring_pipeline(),
            CONFIG.n_processes,
            params={"steps": CONFIG.steps},
            protocol=ApplicationDrivenProtocol(),
            fault_plan=plan,
            seed=CONFIG.seed,
        ).run()
        assert result.stats.frames_sent > 0
        assert result.stats.ack_frames > 0


class TestBrokenTransportShrinking:
    """The harness must catch a sabotaged transport and minimize it."""

    QUIET = ChaosConfig(partition_probability=0.0, crash_probability=0.0)
    BROKEN = replace(QUIET, transport=TransportConfig(dedup=False))

    def _fails(self, plan: FaultPlan) -> bool:
        return run_schedule(plan, config=self.BROKEN).error is not None

    def test_dedup_disabled_is_caught(self):
        plan = draw_schedule(0, self.QUIET)
        assert run_schedule(plan, config=self.QUIET).error is None
        outcome = run_schedule(plan, config=self.BROKEN)
        # It finishes, but with divergent state.
        assert outcome.stats["completed"]
        assert outcome.error == DIVERGED

    def test_failure_shrinks_to_minimal_counterexample(self):
        plan = draw_schedule(0, self.QUIET)
        assert self._fails(plan)
        minimal = shrink_schedule(plan, self._fails)
        events = len(minimal.network_faults) + len(minimal.crashes)
        assert events == 1
        assert self._fails(minimal)
        # 1-minimality: the empty schedule passes even on the broken
        # transport (no fault ever forces a retransmission, so dedup
        # never matters).
        assert not self._fails(FaultPlan())

    def test_shrink_rejects_passing_schedule(self):
        healthy = FaultPlan()
        with pytest.raises(SimulationError):
            shrink_schedule(healthy, self._fails)

    def test_shrink_skips_invalid_candidates(self):
        # A schedule whose failure needs the partitioned window: the
        # shrinker must not die on candidates that drop the partition
        # but keep the heal (invalid plans are skipped, not run).
        events = draw_schedule(0, self.QUIET).network_faults
        plan = FaultPlan(network_faults=list(events) + [
            type(events[0])(
                time=1.0, kind=NetworkFaultKind.PARTITION, src=0, dst=1
            ),
            type(events[0])(
                time=2.0, kind=NetworkFaultKind.HEAL, src=0, dst=1
            ),
        ])
        assert self._fails(plan)
        minimal = shrink_schedule(plan, self._fails)
        assert len(minimal.network_faults) >= 1


class TestOneTransportKnob:
    """``ChaosConfig.transport`` is the only way to pick the transport."""

    @pytest.mark.parametrize("function", [
        run_schedule, chaos_sweep, dump_failure_artifacts,
        shrink_schedule, _chaos_spec,
    ], ids=lambda function: function.__name__)
    def test_no_side_channel_parameter(self, function):
        assert "transport_config" not in inspect.signature(function).parameters

    def test_cell_spec_runs_the_config_transport(self):
        broken = TransportConfig(dedup=False)
        plan = draw_schedule(0, CONFIG)
        default = _chaos_spec("x", plan, "appl-driven", CONFIG)
        sabotaged = _chaos_spec(
            "x", plan, "appl-driven", replace(CONFIG, transport=broken)
        )
        assert default.transport == CONFIG.transport
        assert sabotaged.transport == broken
        # The transport is part of the cell's identity, so a journal
        # never serves a healthy verdict for a broken-transport cell.
        assert sabotaged.content_hash() != default.content_hash()


class TestRecoveryFaultSweep:
    """Recovery-time chaos: faults during rollback plus retention
    pressure, per ISSUE acceptance — every schedule must end in a
    byte-identical recovered state or a clean UNRECOVERABLE verdict,
    with GC never breaking recoverability."""

    RECOVERY = ChaosConfig(recovery_fault_probability=0.7, retain_k=2)

    def test_draw_is_legacy_stream_preserving(self):
        # Turning the feature off (p=0) must reproduce the pre-feature
        # schedules bit for bit — old seeds stay replayable.
        plain = ChaosConfig()
        disabled = ChaosConfig(recovery_fault_probability=0.0)
        for seed in range(30):
            assert draw_schedule(seed, plain) == draw_schedule(seed, disabled)

    def test_draw_produces_recovery_faults(self):
        drawn = sum(
            len(draw_schedule(seed, self.RECOVERY).recovery_faults)
            for seed in range(30)
        )
        assert drawn > 0

    def test_recovery_faults_only_strike_crashing_schedules(self):
        for seed in range(30):
            plan = draw_schedule(seed, self.RECOVERY)
            if plan.recovery_faults:
                assert plan.crashes

    @pytest.mark.parametrize("protocol", RECOVERING_PROTOCOLS)
    @pytest.mark.parametrize("retain_k", [2, 4, None])
    def test_recovery_sweep_holds(self, protocol, retain_k):
        config = ChaosConfig(
            recovery_fault_probability=0.7, retain_k=retain_k
        )
        result = chaos_sweep(range(15), protocols=(protocol,), config=config)
        assert len(result.cells) == 15
        failures = failed_verdicts(result)
        assert not failures, (protocol, retain_k, failures)

    def test_unrecoverable_verdict_is_clean_and_reported(self):
        # Find a schedule the supervisor gives up on; it must count as
        # ok (bounded termination) and be flagged in the outcome.
        for seed in range(40):
            plan = draw_schedule(seed, self.RECOVERY)
            outcome = run_schedule(plan, "appl-driven", self.RECOVERY)
            if unrecoverable(outcome):
                assert outcome.error is None
                assert not outcome.stats["completed"]
                assert "[unrecoverable]" in describe(outcome, plan)
                break
        else:
            pytest.skip("no unrecoverable schedule in the first 40 seeds")

    def test_unrecoverable_schedule_shrinks_and_replays(self, tmp_path):
        for seed in range(40):
            plan = draw_schedule(seed, self.RECOVERY)
            outcome = run_schedule(plan, "appl-driven", self.RECOVERY)
            if unrecoverable(outcome):
                break
        else:
            pytest.skip("no unrecoverable schedule in the first 40 seeds")
        paths = dump_failure_artifacts(
            plan, protocol="appl-driven", config=self.RECOVERY,
            out_dir=tmp_path, prefix="unrec",
        )
        assert paths["schedule"].exists()
        assert "shrunk" in paths
        minimal = FaultPlan.from_json_dict(
            __import__("json").loads(paths["shrunk"].read_text())
        )
        # The minimal counterexample still ends in the clean verdict.
        assert unrecoverable(run_schedule(
            minimal, "appl-driven", self.RECOVERY
        ))
        assert len(minimal.crashes) + len(minimal.recovery_faults) <= (
            len(plan.crashes) + len(plan.recovery_faults)
        )

    def test_ddmin_handles_recovery_atoms(self):
        # A schedule failing *because of* its recovery fault must shrink
        # to (crash, recovery-fault) — network atoms dropped, the
        # recovery atom kept.
        plan = FaultPlan(
            crashes=[(19.5, 1)],
            network_faults=list(
                draw_schedule(0, ChaosConfig(crash_probability=0.0))
                .network_faults
            ),
            recovery_faults=[RecoveryFaultEvent(
                recovery=0, rank=1, kind=RecoveryFaultKind.CRASH,
                attempts=4,
            )],
        )
        config = ChaosConfig()

        def ends_unrecoverable(candidate: FaultPlan) -> bool:
            return unrecoverable(run_schedule(
                candidate, "appl-driven", config
            ))

        assert ends_unrecoverable(plan)
        minimal = shrink_schedule(plan, ends_unrecoverable)
        assert len(minimal.crashes) == 1
        assert len(minimal.recovery_faults) == 1
        assert not minimal.network_faults


#: The family of recovery lines each registered protocol claims.
CLAIMS = {
    "none": "number",
    "appl-driven": "number",
    "sas": "tag",
    "cl": "tag",
    "cic": "tag",
    "uncoordinated": None,
    "msg-logging": None,
}


class UnforcedInduced(InducedProtocol):
    """CIC without the BCS induction rule: no checkpoint is forced."""

    def on_app_message(self, sim, rank, message):
        pass


class TestClaimedRecoveryLines:
    """The judge checks exactly the cuts each protocol claims."""

    @pytest.mark.parametrize("name", protocol_names())
    def test_each_protocol_declares_its_family(self, name):
        # A new protocol fails here until its claim is written down.
        protocol = PROTOCOL_CLASSES[name] or NullProtocol
        assert protocol.recovery_lines == CLAIMS[name]

    def test_the_sweep_runs_every_protocol_that_recovers(self):
        result = chaos_sweep(range(1))
        assert sorted(result.cells) == [
            cell_label(0, name) for name in sorted(CLAIMS) if name != "none"
        ]

    @pytest.mark.parametrize("protocol, verdict", [
        (InducedProtocol, None), (UnforcedInduced, CUT_BROKEN),
    ], ids=["forced", "unforced"])
    def test_the_tag_judge_needs_the_forced_checkpoints(
        self, protocol, verdict
    ):
        config = ChaosConfig(n_processes=4)
        spec = _chaos_spec("cic", FaultPlan(), "cic", config)
        sim = Simulation(
            ring_pipeline(), 4, params={"steps": config.steps},
            protocol=protocol(period=2.0, stagger=4.0),
        )
        result = sim.run()
        shared = set.intersection(*(
            {checkpoint.tag for checkpoint in result.storage.history(rank)}
            for rank in range(4)
        ))
        assert len(shared - {"initial"}) > 1  # index lines were judged
        assert chaos.judge(spec, sim, result) == verdict


class TestUnsafePlacements:
    """Every protocol but ``appl-driven`` recovers without relying on the
    program's own ``checkpoint`` statements, so an unsafe placement must
    not break its contract. ``appl-driven`` stays out: its claim is the
    placement's (``@jacobi_odd_even`` breaks its straight cuts on
    purpose, ``tests/integration/test_cli_contracts.py``)."""

    PROGRAMS = ("jacobi_odd_even", "ring_unsafe")
    PROTOCOLS = ("sas", "cl", "cic", "uncoordinated", "msg-logging")
    CONFIGS = {
        "default": ChaosConfig(n_processes=4),
        "recovery-faults": ChaosConfig(
            n_processes=4, recovery_fault_probability=0.5, retain_k=3
        ),
    }

    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
    def test_every_cell_is_judged_and_matches_its_twin(self, config):
        failures = {}
        for program in self.PROGRAMS:
            for protocol in self.PROTOCOLS:
                twin = None
                for seed in range(10):
                    spec = replace(_chaos_spec(
                        cell_label(seed, protocol),
                        draw_schedule(seed, config), protocol, config,
                    ), program=program_source(program))
                    if twin is None:
                        twin = _twin_env(spec)
                    outcome = _replay(spec, twin)
                    if outcome.error is not None:
                        failures[f"{program}/{spec.label}"] = outcome.error
        assert not failures, failures
