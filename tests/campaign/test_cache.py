"""Transform cache: keys, hit/miss semantics, and hit fidelity."""

import json

from repro.campaign.cache import CACHE_VERSION, TransformCache, transform_cache_key
from repro.lang.printer import to_source
from repro.lang.programs import load_program
from repro.phases.insertion import CostModel
from repro.phases.pipeline import transform
from repro.phases.report import transform_report


class TestKey:
    def test_key_is_stable(self):
        program = load_program("ring_pipeline")
        model = CostModel()
        from repro.attributes.contradiction import Universe

        a = transform_cache_key(program, model, False, Universe(), False)
        b = transform_cache_key(program, model, False, Universe(), False)
        assert a == b

    def test_cost_model_changes_key(self):
        program = load_program("ring_pipeline")
        from repro.attributes.contradiction import Universe

        a = transform_cache_key(
            program, CostModel(), False, Universe(), False
        )
        b = transform_cache_key(
            program, CostModel(failure_rate=0.02), False, Universe(), False
        )
        assert a != b

    def test_flags_change_key(self):
        program = load_program("ring_pipeline")
        model = CostModel()
        from repro.attributes.contradiction import Universe

        plain = transform_cache_key(program, model, False, Universe(), False)
        forced = transform_cache_key(program, model, False, Universe(), True)
        loops = transform_cache_key(program, model, True, Universe(), False)
        assert len({plain, forced, loops}) == 3

    def test_compiler_version_changes_key(self, monkeypatch):
        """A COMPILER_VERSION bump must orphan every cached transform.

        Cached programs are executed by the closure compiler, so the
        cache schema ties entries to the lowering that will run them.
        """
        import repro.campaign.cache as cache_mod
        from repro.attributes.contradiction import Universe

        program = load_program("ring_pipeline")
        model = CostModel()
        before_schema = cache_mod.cache_schema()
        before = transform_cache_key(program, model, False, Universe(), False)
        monkeypatch.setattr(
            cache_mod, "COMPILER_VERSION", cache_mod.COMPILER_VERSION + 1
        )
        assert cache_mod.cache_schema() != before_schema
        after = transform_cache_key(program, model, False, Universe(), False)
        assert after != before


class TestHitMiss:
    def test_first_miss_then_hit(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        first = transform(program, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        second = transform(program, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert to_source(second.program) == to_source(first.program)

    def test_hit_report_is_byte_identical(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("jacobi_plain")
        fresh = transform(program, cache=cache)
        cached = transform(program, cache=cache)
        assert cache.hits == 1
        assert transform_report(cached) == transform_report(fresh)

    def test_different_cost_model_misses(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        transform(program, cache=cache)
        transform(program, CostModel(failure_rate=0.02), cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_corrupt_entry_is_a_miss_and_self_heals(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        transform(program, cache=cache)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{ not json")
        again = transform(program, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2
        assert cache.stores == 2
        # The overwrite healed the entry: next lookup hits.
        transform(program, cache=cache)
        assert cache.hits == 1
        assert to_source(again.program) is not None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        transform(program, cache=cache)
        for path in tmp_path.glob("*.json"):
            entry = json.loads(path.read_text())
            entry["version"] = CACHE_VERSION + 1
            path.write_text(json.dumps(entry))
        transform(program, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2


class TestMetrics:
    def test_counters(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        transform(program, cache=cache)
        transform(program, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)


class TestHitFidelity:
    def test_insertion_summary_survives(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("jacobi_plain")
        fresh = transform(program, cache=cache)
        cached = transform(program, cache=cache)
        assert cached.insertion is not None
        assert cached.insertion.inserted == fresh.insertion.inserted
        assert cached.insertion.interval == fresh.insertion.interval
        assert to_source(cached.insertion.program) == to_source(
            fresh.insertion.program
        )

    def test_placement_moves_survive(self, tmp_path):
        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        fresh = transform(program, cache=cache)
        cached = transform(program, cache=cache)
        assert cached.placement.moves == fresh.placement.moves
        assert (
            cached.placement.ordering_constraints
            == fresh.placement.ordering_constraints
        )
        assert cached.verification.indexing == fresh.verification.indexing

    def test_cached_program_still_simulates(self, tmp_path):
        from repro.runtime.engine import Simulation

        cache = TransformCache(tmp_path)
        program = load_program("ring_pipeline")
        fresh = transform(program, cache=cache)
        cached = transform(program, cache=cache)
        run_fresh = Simulation(
            fresh.program, 3, params={"steps": 4}, seed=1
        ).run()
        run_cached = Simulation(
            cached.program, 3, params={"steps": 4}, seed=1
        ).run()
        assert run_cached.stats.as_dict() == run_fresh.stats.as_dict()
        assert run_cached.final_env == run_fresh.final_env

    def test_hit_keeps_the_meaning_of_not_under_arithmetic(self, tmp_path):
        # The entry stores printed source: a hit is only the program the
        # cold transform returned if the printer round-trips it.
        from repro.lang.parser import parse
        from repro.runtime.engine import Simulation

        cache = TransformCache(tmp_path)
        program = parse(
            "program t():\n    x = 1\n    checkpoint\n    r = (not x) + 1\n"
        )
        cold = transform(program, cache=cache)
        hit = transform(program, cache=cache)
        assert cache.hits == 1
        for result in (cold, hit):
            run = Simulation(result.program, 2, seed=1).run()
            assert [env["r"] for env in run.final_env.values()] == [1, 1]
