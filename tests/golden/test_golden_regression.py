"""Golden regression layer: snapshots of the closed-form outputs, and
of one seeded sim-mode sweep under a fault plan.

Any change to the Table 3 transcription, the timing-expression
evaluator, or the analytic cost model shows up here as a reviewable
JSON diff instead of a silent drift.  Regenerate intentionally with
``pytest --update-golden``.

All values are rounded to 9 significant digits before snapshotting so
the goldens survive last-ulp libm differences across platforms while
still catching any real (model-level) change.
"""

from repro.bench.workload import machine_sizes_for
from repro.core import (
    PAPER_MACHINE_SIZES,
    STARTUP_PROBE_BYTES,
    AnalyticModel,
    table3_grid,
)
from repro.machines import get_machine_spec
from repro.runner import preset_grid

TABLE3_SIZES = (4, 64, 1024, 16384, 65536)
TABLE3_NODES = (2, 4, 8, 16, 32, 64, 128)


def _round9(value: float) -> float:
    return float(f"{value:.9g}")


def test_table3_expression_outputs_golden(golden):
    """Table 3's 21 expressions evaluated over the paper grid."""
    grids = table3_grid(TABLE3_SIZES, TABLE3_NODES)
    payload = {}
    for (machine, op), grid in sorted(grids.items()):
        series = {}
        for i, p in enumerate(TABLE3_NODES):
            series[str(p)] = {str(m): _round9(grid[i, j])
                              for j, m in enumerate(TABLE3_SIZES)}
        payload[f"{machine}/{op}"] = series
    golden.check("table3_expressions.json", payload)


def _analytic_curves(ops, sizes):
    """op/machine -> p -> m -> predicted us, over the paper's sizes."""
    payload = {}
    for op in ops:
        for machine in ("sp2", "t3d", "paragon"):
            model = AnalyticModel(get_machine_spec(machine))
            series = {}
            for p in machine_sizes_for(machine, PAPER_MACHINE_SIZES):
                times = model.predict_batch(op, sizes, p)
                series[str(p)] = {str(m): _round9(t)
                                  for m, t in zip(sizes, times)}
            payload[f"{op}/{machine}"] = series
    return payload


def test_fig1_curve_points_golden(golden):
    """Figure 1's startup-latency curves via the analytic model."""
    ops = ("broadcast", "alltoall", "scatter", "gather", "scan",
           "reduce")
    golden.check("fig1_analytic_curves.json",
                 _analytic_curves(ops, (STARTUP_PROBE_BYTES,)))


def test_fig3_curve_points_golden(golden):
    """Figure 3's short/long machine-size curves (plus the barrier)."""
    ops = ("broadcast", "alltoall", "scatter", "gather", "scan",
           "reduce")
    payload = _analytic_curves(ops, (16, 65536))
    payload.update(_analytic_curves(("barrier",), (0,)))
    golden.check("fig3_analytic_curves.json", payload)


def test_sweep_baseline_matches_model_mode():
    """The checked-in sweep baseline reproduces from the live model.

    ``tests/golden/BENCH_sweep_baseline.json`` is what ``repro-bench
    diff`` gates against; this test regenerates the same smoke grid in
    ``model`` mode and requires a clean diff, so the baseline can
    never drift from the code that claims to reproduce it.
    """
    from pathlib import Path

    from repro.runner import (
        ResultCache,
        SweepConfig,
        build_artifact,
        diff_artifacts,
        load_artifact,
        run_sweep,
    )

    baseline_path = Path(__file__).parent / "BENCH_sweep_baseline.json"
    config = SweepConfig(mode="model", use_cache=False)
    result = run_sweep(preset_grid("smoke").cells(), config,
                       ResultCache(enabled=False))
    regenerated = build_artifact(result, "smoke", config)
    diff = diff_artifacts(load_artifact(baseline_path), regenerated,
                          rtol=1e-9)
    assert diff.clean(), diff.format()


def test_lossy_smoke_sweep_golden(golden, tmp_path, capsys):
    """A seeded sim-mode sweep under the ``lossy`` fault preset,
    byte for byte.

    ``tests/golden/BENCH_sweep_lossy_smoke.json`` is the artifact of
    ``repro-bench sweep --grid smoke --faults lossy --no-cache``.  Loss,
    corruption, retransmission timeouts and the short-circuit's fault
    handling all feed these simulated times, so any change to them is
    a reviewable diff.  The CI chaos job compares the same file.
    """
    import json

    from repro.cli import main

    out = tmp_path / "lossy.json"
    assert main(["sweep", "--grid", "smoke", "--faults", "lossy",
                 "--no-cache", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text("utf-8")
    payload = json.loads(text)
    # The CLI writes the golden's own canonical form, so comparing the
    # rendered payload compares the artifact's bytes.
    assert golden.render(payload) == text
    golden.check("BENCH_sweep_lossy_smoke.json", payload)
