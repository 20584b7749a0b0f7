"""The traced run executes the same simulator code as the untraced one."""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from layers import LayerTracer, TracingChangesCodePath


def test_traced_fig3_run_keeps_the_short_circuit_path():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "fig3-trees", "--seed", "1997", "--seconds", "0.1", "--trace",
         "1", "--size", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["network.fabric.shortcircuit_share"]["value"] > 0
    assert metrics["machines.worlds_built"]["value"] > 0


@pytest.mark.parametrize("flag", ["trace", "metrics"])
def test_tracer_refuses_worlds_that_switch_the_fast_path_off(flag):
    import repro.core.measurement as measurement

    with LayerTracer() as tracer:
        measurement.MpiWorld("sp2", 2)
        with pytest.raises(TracingChangesCodePath):
            measurement.MpiWorld("sp2", 2, **{flag: True})
    assert tracer.worlds_built == 1


def test_tracer_attaches_observers_and_restores_every_name():
    import repro.core.measurement as measurement
    import repro.runner.pool as pool
    import repro.tuner.sweep as tune_sweep

    names = [(measurement, "MpiWorld"), (pool, "evaluate_cell"),
             (pool, "measure_collective"), (pool, "cell_fingerprint"),
             (tune_sweep, "run_sweep"), (tune_sweep, "fit_decision_table")]
    before = [getattr(owner, name) for owner, name in names]
    with LayerTracer() as tracer:
        world = measurement.MpiWorld("t3d", 4)
        assert world.env.work is tracer.meter
        assert world.env.profiler is tracer.profiler
        assert not world.tracer.enabled and not world.metrics.enabled
    assert [getattr(owner, name) for owner, name in names] == before
