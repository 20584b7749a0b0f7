"""Smoke-size runs of every workload through the benchmark's command.

Each run uses the tiny ``smoke`` grids, so the whole file takes well
under a minute; the full grids are the benchmark itself.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from workloads import WORKLOADS

RUN = os.path.join(BENCH, "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1997",
         "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """``(workload, untraced result, traced result, traced stdout,
    untraced stdout)``."""
    plain, traced = _run(request.param, 0), _run(request.param, 1)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    return (request.param, json.loads(plain.stdout.splitlines()[-1]),
            json.loads(traced.stdout.splitlines()[-1]), traced.stdout,
            plain.stdout)


def _digest_line(stdout):
    return next(line for line in stdout.splitlines()
                if line.startswith("digest "))


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_every_metric_appears_with_its_unit(runs):
    _, plain, traced, _, _ = runs
    spec = _spec()
    for result, declared in ((plain, spec["end_to_end"]),
                             (traced, spec["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert {name: metric["unit"] for name, metric in
                result["metrics"].items()} == \
            {metric["name"]: metric["unit"] for metric in declared}
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)


def test_no_cell_fails_and_digests_agree(runs):
    _, plain, traced, traced_out, plain_out = runs
    for result in (plain, traced):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
    # The traced command compares its own untraced and traced workers;
    # the separate untraced command must print the same digest.
    assert _digest_line(traced_out).endswith(" agree")
    assert _digest_line(plain_out) == _digest_line(traced_out)


def test_traced_run_prints_cell_table(runs):
    lines = runs[3].splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.startswith("cell "))
    rows = [line.split() for line in lines[header + 1:-1]]
    assert rows
    walls = [float(row[1]) for row in rows]
    assert walls == sorted(walls, reverse=True)
    assert all(row[-1] in ("miss/hit", "hit/hit") for row in rows)


def test_end_to_end_metrics_are_never_zero(runs):
    for name, metric in runs[1]["metrics"].items():
        assert metric["value"] > 0, name


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    proc = _run("fig3-trees", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
