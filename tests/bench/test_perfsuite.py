"""Tests for the engine perf suite and BENCH_engine.json gate."""

import copy
import json

import pytest

from repro.bench.perfsuite import (
    PERF_SCHEMA,
    build_perf_artifact,
    check_perf_artifact,
    dumps_perf_artifact,
    load_perf_artifact,
    perf_workload_names,
    run_perf_suite,
    run_workload,
    work_section_text,
    write_perf_artifact,
)
from repro.bench import document_diff_paths


def _smoke_artifact():
    return build_perf_artifact(run_perf_suite("smoke"), suite="smoke")


@pytest.fixture
def smoke_artifact(smoke_perf_runs):
    """A fresh artifact document built from the session's shared run."""
    return build_perf_artifact(list(smoke_perf_runs), suite="smoke")


def test_workload_names_per_suite():
    smoke = perf_workload_names("smoke")
    default = perf_workload_names("default")
    assert smoke
    assert set(smoke) < set(default)
    assert all(name.startswith("micro/") for name in smoke)
    assert any(name.startswith("collective/") for name in default)
    # All three machines are represented at p=64 and p=256.
    for machine in ("sp2", "t3d", "paragon"):
        assert f"collective/{machine}-broadcast-p64" in default
        assert f"collective/{machine}-broadcast-p256" in default


def test_unknown_suite_and_workload_rejected():
    with pytest.raises(ValueError):
        perf_workload_names("nope")
    with pytest.raises(ValueError):
        run_workload("micro/does-not-exist")


def test_run_workload_returns_work_and_clock():
    run = run_workload("micro/engine-timeouts")
    assert run.workload == "micro/engine-timeouts"
    assert run.work["events_fired"] > 400000
    assert run.sim_time_us == 400000.0
    assert run.wall_s > 0
    assert run.events_per_sec > 0


def test_artifact_roundtrip_and_schema_gate(tmp_path, smoke_artifact):
    artifact = smoke_artifact
    assert artifact["schema"] == PERF_SCHEMA
    path = tmp_path / "BENCH_engine.json"
    write_perf_artifact(artifact, path)
    assert load_perf_artifact(path) == artifact
    # Canonical serialization: sorted keys, final newline.
    text = path.read_text()
    assert text.endswith("\n")
    assert text == dumps_perf_artifact(artifact)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(ValueError):
        load_perf_artifact(bad)


def test_work_section_byte_identical_across_runs():
    first, second = _smoke_artifact(), _smoke_artifact()
    assert work_section_text(first) == work_section_text(second)
    assert first["work"] == second["work"]


def test_runs_differ_only_in_throughput_paths():
    """Two runs of the same suite must diverge only under the
    designated volatile section (wall-clock throughput)."""
    first, second = _smoke_artifact(), _smoke_artifact()
    for path in document_diff_paths(first, second):
        assert path.startswith("throughput/"), \
            f"nondeterministic path outside throughput/: {path}"


def test_check_passes_against_own_run():
    artifact = _smoke_artifact()
    result = check_perf_artifact(_smoke_artifact(), artifact)
    assert result.passed()
    assert result.work_mismatches == []
    assert "PASS" in result.format()


def test_check_fails_on_counter_change(smoke_artifact):
    baseline = smoke_artifact
    mutated = copy.deepcopy(baseline)
    cell = mutated["work"]["micro/engine-timeouts"]
    cell["counters"]["events_fired"] += 1
    result = check_perf_artifact(mutated, baseline)
    assert not result.passed()
    assert any("events_fired" in message
               for message in result.work_mismatches)
    assert "FAIL" in result.format()


def test_check_fails_on_sim_time_change(smoke_artifact):
    baseline = smoke_artifact
    mutated = copy.deepcopy(baseline)
    mutated["work"]["micro/engine-timeouts"]["sim_time_us"] += 1.0
    result = check_perf_artifact(mutated, baseline)
    assert not result.passed()
    assert any("sim_time_us" in message
               for message in result.work_mismatches)


def test_check_fails_on_missing_or_extra_workload(smoke_artifact):
    baseline = smoke_artifact
    missing = copy.deepcopy(baseline)
    del missing["work"]["micro/ptp-t3d-p2"]
    result = check_perf_artifact(missing, baseline)
    assert any("missing from current run" in message
               for message in result.work_mismatches)
    extra = copy.deepcopy(baseline)
    extra["work"]["micro/new-kernel"] = {"counters": {}, "sim_time_us": 0}
    result = check_perf_artifact(extra, baseline)
    assert any("not in baseline" in message
               for message in result.work_mismatches)


def test_check_fails_on_throughput_regression(smoke_artifact):
    baseline = smoke_artifact
    current = copy.deepcopy(baseline)
    total = baseline["throughput"]["total"]
    total["events_per_sec"] = current["throughput"]["total"][
        "events_per_sec"] * 100.0
    result = check_perf_artifact(current, baseline, min_ratio=0.33)
    assert result.work_mismatches == []
    assert not result.throughput_ok
    assert not result.passed()
    assert "REGRESSION" in result.format()


def test_check_rejects_bad_min_ratio(smoke_artifact):
    artifact = smoke_artifact
    with pytest.raises(ValueError):
        check_perf_artifact(artifact, artifact, min_ratio=0.0)


def test_profiled_suite_has_identical_work(smoke_artifact):
    from repro.obs import EngineProfiler

    plain = smoke_artifact
    profiler = EngineProfiler()
    profiled = build_perf_artifact(
        run_perf_suite("smoke", profiler=profiler), suite="smoke")
    assert work_section_text(plain) == work_section_text(profiled)
    assert profiler.folded_lines()


def test_checked_in_baseline_matches_fresh_run():
    """The repo-root BENCH_engine.json reproduces from the live
    engine: every work counter byte-identical."""
    from pathlib import Path

    baseline_path = Path(__file__).resolve().parents[2] / \
        "BENCH_engine.json"
    baseline = load_perf_artifact(baseline_path)
    current = build_perf_artifact(run_perf_suite("default"),
                                  suite="default")
    result = check_perf_artifact(current, baseline, min_ratio=1e-9)
    assert result.work_mismatches == [], \
        "\n".join(result.work_mismatches)
    assert work_section_text(current) == work_section_text(baseline)
