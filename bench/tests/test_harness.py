"""Tests of the benchmark harness itself: ``pytest bench/tests``.

Not part of the tier-1 suite (``testpaths`` is untouched): these check
the measuring instrument, not the program under test.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import compare  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from layers import Layers, MissingLayer  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.make_inputs(workload, 5) == gen.make_inputs(workload, 5)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_differs_across_seeds(workload):
    assert gen.make_inputs(workload, 5) != gen.make_inputs(workload, 6)


def test_steady_workloads_differ_in_exactly_one_field():
    from repro.campaign import load_campaign

    full = load_campaign(gen.make_inputs("steady_full", 5).campaign_text)
    minimal = load_campaign(
        gen.make_inputs("steady_minimal", 5).campaign_text
    )
    assert [s.label for s in full] == [s.label for s in minimal]
    for a, b in zip(full, minimal):
        assert a.checkpoint_mode == "full"
        assert b.checkpoint_mode == "pruned+delta"
        data_a, data_b = a.to_json_dict(), b.to_json_dict()
        del data_a["checkpoint_mode"], data_b["checkpoint_mode"]
        assert data_a == data_b


def test_benchmark_json_names_the_generated_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)


def test_sweep_cost_clusters_do_not_depend_on_the_seed():
    for seed in (5, 6):
        jobs = gen.make_inputs("transform_sweep", seed).jobs
        cold = [job for job in jobs if job.twin is None]
        hits = [job for job in jobs if job.twin is not None]
        # A fifth of the cold jobs form the most expensive cluster ...
        top = [job for job in cold if job.label.startswith("branchy9_")]
        assert len(top) * 5 >= len(cold)
        # ... and about one job in four is a cache hit on an identical
        # source.
        assert 0.2 <= len(hits) / len(jobs) <= 0.25
        by_label = {job.label: job for job in jobs}
        assert all(by_label[job.twin].source == job.source for job in hits)
        assert sorted(job.twin.split("_")[0] for job in hits) == (
            ["branchy9"] * 3 + ["exchange"] * 4 + ["ring"] * 5
        )


# -- statistics --------------------------------------------------------------


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)
    assert harness.percentile(list(range(1, 101)), 90) == 90


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
    assert harness.iqr_share(values) == pytest.approx(4.5 / 13.5)
    assert harness.iqr_share([1.0, 2.0, 3.0]) is None


def test_calibrator_scales_an_interval_by_its_neighbouring_bursts():
    calibrator = harness.Calibrator()
    # Replace the measured bursts by known ones: the kernel took twice the
    # reference time, so the host was half as fast as the reference.
    slow = 2 * harness.Calibrator.REF_S
    calibrator._bursts = [(0.0, 1.0, slow), (5.0, 6.0, slow)]
    raw, calibrated = calibrator.between(2.0, 4.0)
    assert raw == pytest.approx(2.0)
    assert calibrated == pytest.approx(1.0)
    # Burst time itself is outside every interval.
    assert calibrator.between(0.5, 5.5)[0] == pytest.approx(4.0)


# -- spans -------------------------------------------------------------------


def test_span_self_time_subtracts_the_union_of_children():
    log = tracing.SpanLog()
    log.spans = [
        {"id": 0, "name": "cell", "cell": "c", "parent": None,
         "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "cell": "c", "parent": 0,
         "start": 1.0, "end": 4.0},
        # Overlaps its sibling: the overlap is covered once, not twice.
        {"id": 2, "name": "b", "cell": "c", "parent": 0,
         "start": 3.0, "end": 6.0},
        {"id": 3, "name": "a", "cell": "c", "parent": 0,
         "start": 8.0, "end": 9.0},
        # A grandchild does not count against the grandparent.
        {"id": 4, "name": "inner", "cell": "c", "parent": 1,
         "start": 1.5, "end": 2.0},
    ]
    assert log.self_time(0) == pytest.approx(10.0 - 5.0 - 1.0)
    assert log.self_time(1) == pytest.approx(2.5)
    assert log.total("a") == pytest.approx(4.0)


def test_span_records_parent_cell_and_order():
    log = tracing.SpanLog()
    with log.span("cell", cell="x") as outer:
        with log.span("stage", cell="x", parent=outer):
            time.sleep(0.001)
    assert [s["name"] for s in log.spans] == ["cell", "stage"]
    assert log.spans[1]["parent"] == outer
    assert log.duration(1) > 0
    assert log.self_time(outer) < log.duration(outer)


def test_a_moved_entry_point_reads_as_missing_not_as_a_crash(capsys):
    layers = Layers({"gone": "repro.no_such_module:thing"})
    with pytest.raises(MissingLayer):
        layers.gone
    assert "bench/layers.py" in capsys.readouterr().err
    assert Layers().load_campaign is not None


# -- compare.py --------------------------------------------------------------


def _result(seed=1, failed=0, spread=0.01, **values):
    metrics = {
        spec["name"]: {"value": 100.0, "unit": spec["unit"]}
        for spec in BENCHMARK["end_to_end"]
    }
    for name, value in values.items():
        metrics[name]["value"] = value
    return {
        "workload": "steady_full", "seed": seed, "attempted": 100,
        "failed": failed, "round_wall_iqr_share": spread, "metrics": metrics,
    }


def _compare(tmp_path, a, b):
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(a))
    path_b.write_text(json.dumps(b))
    return compare.main([str(path_a), str(path_b)])


def _spec(name):
    return next(s for s in BENCHMARK["end_to_end"] if s["name"] == name)


def test_compare_accepts_identical_runs(tmp_path, capsys):
    assert _compare(tmp_path, _result(), _result()) == 0
    assert "worse" not in capsys.readouterr().out.replace("0 worse", "")


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    bound = _spec("cells_per_s")["bound"]
    slower = 100.0 * (1 - bound) - 1.0
    assert _compare(tmp_path, _result(), _result(cells_per_s=slower)) == 1
    within = 100.0 * (1 - bound) + 1.0
    assert _compare(tmp_path, _result(), _result(cells_per_s=within)) == 0
    # Higher is better for throughput: a gain is never a regression.
    assert _compare(tmp_path, _result(), _result(cells_per_s=150.0)) == 0


def test_compare_reports_noisy_runs_as_unresolved(tmp_path, capsys):
    noisy = _result(spread=_spec("cells_per_s")["bound"] + 0.05)
    assert _compare(tmp_path, _result(), noisy) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_requires_deterministic_metrics_to_match_exactly(tmp_path):
    changed = _result(sim_overhead_ratio=100.0000001)
    assert _compare(tmp_path, _result(), changed) == 1
    # Different seeds draw different inputs: the bound applies instead.
    assert _compare(tmp_path, _result(), _result(seed=2, sim_overhead_ratio=100.0000001)) == 0


def test_compare_flags_any_rise_in_failed_share(tmp_path):
    assert _compare(tmp_path, _result(), _result(failed=1)) == 1


def test_compare_flags_a_changed_simulated_count(tmp_path):
    a, b = _result(), _result()
    a["layer_metrics"] = {"runtime.engine.steps": {"value": 5, "unit": "count"}}
    b["layer_metrics"] = {"runtime.engine.steps": {"value": 6, "unit": "count"}}
    assert _compare(tmp_path, a, b) == 1


# -- the command, end to end -------------------------------------------------


@pytest.fixture
def one_setup(monkeypatch):
    """Run the command in-process, with a single set-up to save time."""
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_steady_full_smoke_finishes_in_seconds(one_setup, capsys):
    start = time.perf_counter()
    code = run.main(["--workload", "steady_full", "--rounds", "1"])
    assert time.perf_counter() - start < 60
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
    names = [spec["name"] for spec in BENCHMARK["end_to_end"]]
    names += [spec["name"] for spec in BENCHMARK["per_layer"]]
    assert sorted(line["metrics"]) == sorted(names)
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
    # One round of eleven cells cannot carry a p90.
    assert line["metrics"]["cell_wall_p90_ms"]["value"] is None
    trace = json.loads((BENCH_DIR / "out" / "trace_steady_full.json").read_text())
    assert {"name", "start", "end", "parent", "cell"} <= set(trace["spans"][0])


def test_a_corrupted_expected_digest_fails_the_run(
    one_setup, monkeypatch, tmp_path, capsys
):
    expected = json.loads(
        (harness.EXPECTED_DIR / "steady_full.json").read_text()
    )
    victim = sorted(expected["cells"])[0]
    expected["cells"][victim]["digest"] = "0" * 64
    (tmp_path / "steady_full.json").write_text(json.dumps(expected))
    monkeypatch.setattr(harness, "EXPECTED_DIR", tmp_path)
    code = run.main(
        ["--workload", "steady_full", "--rounds", "1", "--trace", "0"]
    )
    assert code == 1
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert not line["correct"] and line["failed"] == 1
    assert f"{victim}: outcome digest differs" in out
