"""Command-line interface: regenerate any of the paper's artifacts.

Examples::

    repro-bench figure 1                # startup latencies
    repro-bench figure 3 --fast         # coarse grid
    repro-bench table3
    repro-bench headline
    repro-bench measure sp2 alltoall --bytes 65536 --nodes 64
    repro-bench trace sp2 broadcast --bytes 4096 --nodes 16 \\
        --out trace.json
    repro-bench profile t3d alltoall --bytes 4096 --nodes 32
    repro-bench perf --out BENCH_engine.json
    repro-bench perf --check BENCH_engine.json --flame engine.folded
    repro-bench sweep --grid fig3 --workers 8 --out BENCH_sweep.json
    repro-bench sweep --grid smoke --faults lossy --cell-timeout 120
    repro-bench chaos t3d broadcast --nodes 64
    repro-bench critpath t3d broadcast --nodes 64 --bytes 1048576 \\
        --faults midflight-outage
    repro-bench audit tests/golden/BENCH_sweep_baseline.json \\
        --out BENCH_drift.json
    repro-bench audit BENCH_sweep.json --trend \\
        --history BENCH_drift.json
    repro-bench diff tests/golden/BENCH_sweep_baseline.json \\
        BENCH_sweep.json
    repro-bench dash --artifacts . --capture t3d:broadcast \\
        --faults single-link-outage --out site

Bad input exits 2 with a one-line message on stderr, never a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import List, Optional, Tuple

from .bench import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    format_headline,
    format_table3,
    headline_checks,
    table3,
)
from .core import QUICK_CONFIG, MeasurementConfig, measure_collective
from .core.report import format_us
from .faults import FAULT_FREE, fault_preset
from .machines import get_machine_spec
from .mpi import COLLECTIVE_OPS

__all__ = ["main"]

_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}
_MACHINES = ("sp2", "t3d", "paragon")


class _UsageError(Exception):
    """Bad command-line input: ``main`` prints it and exits 2."""


@contextlib.contextmanager
def _usage(*errors):
    """Re-raise ``errors`` from the block as a :class:`_UsageError`.

    A ``KeyError`` reports its message (its ``str`` would quote it).
    """
    try:
        yield
    except errors as error:
        raise _UsageError(error.args[0] if isinstance(error, KeyError)
                          else error) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


#: Arguments several commands share, each declared once here.
_SHARED = {
    "machine": dict(choices=_MACHINES),
    "op": dict(choices=COLLECTIVE_OPS, metavar="op"),
    "--bytes": dict(type=_non_negative_int),
    "--nodes": dict(type=int),
    "--workers": dict(type=_positive_int, default=1,
                      help="worker processes for simulated cells"),
    "--cache-dir": dict(metavar="PATH",
                        help="cache root (default $REPRO_SWEEP_CACHE or "
                             "~/.cache/repro/sweep)"),
    "--no-cache": dict(action="store_true",
                       help="neither read nor write the result cache"),
    "--iterations": dict(type=_positive_int,
                         default=QUICK_CONFIG.iterations),
    "--runs": dict(type=_positive_int, default=QUICK_CONFIG.runs),
    "--seed": dict(type=int, default=QUICK_CONFIG.seed),
}
#: One (machine, op, m, p) point; ``main`` checks ``--nodes`` against
#: the machine before anything runs.
_POINT = ("machine", "op", "--bytes", "--nodes")
#: The point that ``trace``, ``profile``, ``chaos``, ``critpath`` and
#: ``dash --capture`` run unless told otherwise.
_CAPTURE_POINT = dict(bytes=4096, nodes=16, iterations=1, seed=0)


def _add_shared(parser: argparse.ArgumentParser, *names: str,
                capture: bool = False, **defaults) -> None:
    """Declare the shared arguments ``names`` in order, then
    ``defaults`` on top.  ``capture`` words the help for
    ``dash --capture MACHINE:OP``."""
    nouns = {"--bytes": "message size", "--nodes": "node count",
             "--seed": "seed"}
    for name in names:
        options = dict(_SHARED[name])
        if capture:
            options["help"] = f"{nouns[name]} for --capture"
        parser.add_argument(name, **options)
    parser.set_defaults(**defaults)


def _check_nodes(machine: str, nodes: int) -> None:
    with _usage(ValueError):
        get_machine_spec(machine).check_nodes(nodes)


def _fault_plan(name: Optional[str]):
    """The ``--faults`` preset called ``name``; None for none/"none"."""
    if not name or name == "none":
        return None
    with _usage(KeyError):
        return fault_preset(name)


def _protocol(args, faults=None) -> MeasurementConfig:
    """The §2 timing protocol ``--iterations/--runs/--seed`` ask for."""
    return dataclasses.replace(QUICK_CONFIG, iterations=args.iterations,
                               runs=args.runs, seed=args.seed,
                               faults=faults)


def _capture(args, **options):
    """Run the command's point once through ``capture_collective``."""
    from .obs.capture import capture_collective
    return capture_collective(
        args.machine, args.op, nbytes=args.bytes, num_nodes=args.nodes,
        iterations=args.iterations, seed=args.seed, **options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate figures/tables from 'Evaluating MPI "
                    "Collective Communication on the SP2, T3D, and "
                    "Paragon Multicomputers' (HPCA 1997) on the "
                    "simulator.")
    parser.add_argument("--fast", action="store_true",
                        help="coarse grids and single runs "
                             "(sets REPRO_BENCH_FAST=1)")
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate Figure 1-5")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))
    figure.add_argument("--csv", metavar="PATH",
                        help="also write the series to a CSV file")
    figure.add_argument("--json", metavar="PATH",
                        help="also write the series to a JSON file")
    figure.add_argument("--plot", action="store_true",
                        help="render the series as an ASCII log-log "
                             "chart")
    figure.set_defaults(run=_run_figure)

    sub.add_parser("table3", help="regenerate Table 3 (curve fits)") \
        .set_defaults(run=lambda args: print(format_table3(table3())))
    sub.add_parser("headline", help="check the headline claims") \
        .set_defaults(run=lambda args: print(
            format_headline(headline_checks())))

    measure = sub.add_parser("measure",
                             help="measure one (machine, op, m, p) point")
    _add_shared(measure, *_POINT, "--iterations", "--runs", "--seed",
                bytes=1024, nodes=32, run=_run_measure)

    sensitivity = sub.add_parser(
        "sensitivity",
        help="which machine parameter dominates one (op, m, p) point")
    _add_shared(sensitivity, *_POINT, bytes=1024, nodes=32,
                run=_run_sensitivity)
    sensitivity.add_argument("--top", type=int, default=8)

    apps = sub.add_parser(
        "app", help="run an application kernel with phase breakdown")
    apps.add_argument("name", choices=["stap", "fft2d", "samplesort"])
    _add_shared(apps, "machine", "--nodes", nodes=16, run=_run_app)

    trace = sub.add_parser(
        "trace",
        help="capture a span trace of one collective "
             "(Chrome-trace/Perfetto JSON, CSV)")
    _add_shared(trace, *_POINT, "--iterations", "--seed",
                **_CAPTURE_POINT, run=_run_trace)
    trace.add_argument("--max-spans", type=_positive_int, default=None,
                       help="bounded-memory ring: keep only the newest "
                            "N spans")
    trace.add_argument("--out", metavar="PATH",
                       help="write Chrome-trace JSON (open in "
                            "ui.perfetto.dev or chrome://tracing)")
    trace.add_argument("--csv", metavar="PATH",
                       help="also write the spans as CSV")

    profile = sub.add_parser(
        "profile",
        help="utilization + engine hot-path report for one collective")
    _add_shared(profile, *_POINT, "--iterations", "--seed",
                **_CAPTURE_POINT, run=_run_profile)
    profile.add_argument("--top", type=int, default=8,
                         help="links/process types to list")
    profile.add_argument("--csv", metavar="PATH",
                         help="also write the site rankings as CSV")
    profile.add_argument("--folded", metavar="PATH",
                         help="also write collapsed stacks (feed to "
                              "flamegraph.pl or speedscope)")
    profile.add_argument("--work", action="store_true",
                         help="also print the deterministic work "
                              "counters")

    perf = sub.add_parser(
        "perf",
        help="run the fixed engine perf suite; emit or gate the "
             "BENCH_engine.json trajectory artifact")
    perf.add_argument("--suite", default="default",
                      choices=["smoke", "default"],
                      help="workload set: smoke = micro kernels only, "
                           "default = micro kernels + p=64/256 "
                           "collectives on all three machines")
    perf.add_argument("--out", metavar="PATH",
                      help="write the artifact "
                           "(e.g. BENCH_engine.json)")
    perf.add_argument("--check", metavar="BASELINE",
                      help="gate against a baseline artifact: exits "
                           "non-zero on any work-counter change or on "
                           "throughput below --min-ratio x baseline")
    perf.add_argument("--min-ratio", type=_positive_float,
                      default=None,
                      help="events/sec floor as a fraction of the "
                           "baseline (default 0.33; wall-clock only — "
                           "work counters always compare exactly)")
    perf.add_argument("--flame", metavar="PATH",
                      help="profile the suite and write collapsed "
                           "stacks (flamegraph.pl / speedscope input)")
    perf.add_argument("--top", type=_positive_int, default=10,
                      help="hot sites to list with --flame")
    perf.set_defaults(run=_run_perf)

    sweep = sub.add_parser(
        "sweep",
        help="run a (machine, op, m, p) grid through the parallel "
             "sweep runner, reusing cached cells")
    sweep.add_argument("--grid", default="fig3",
                       help="grid preset (fig1, fig2, fig3, smoke, "
                            "full)")
    sweep.add_argument("--mode", default="sim",
                       choices=["sim", "analytic", "model"],
                       help="sim = discrete-event simulator, analytic "
                            "= closed-form cost model, model = the "
                            "paper's Table 3 expressions")
    _add_shared(sweep, "--workers")
    sweep.add_argument("--out", metavar="PATH",
                       default="BENCH_sweep.json",
                       help="artifact path (default BENCH_sweep.json)")
    sweep.add_argument("--csv", metavar="PATH",
                       help="also write the cells as CSV")
    _add_shared(sweep, "--cache-dir", "--no-cache")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="drop every cached cell before running")
    _add_shared(sweep, "--iterations", "--runs", "--seed")
    sweep.add_argument("--machines", metavar="NAMES",
                       help="restrict the grid to these machines "
                            "(comma-separated, e.g. sp2,t3d)")
    sweep.add_argument("--ops", metavar="NAMES",
                       help="restrict the grid to these collectives "
                            "(comma-separated)")
    sweep.add_argument("--faults", metavar="PRESET",
                       help="inject a fault-plan preset into every "
                            "cell (single-link-outage, "
                            "midflight-outage, flaky-link, lossy, "
                            "slow-node, chaos); changes every cache "
                            "fingerprint")
    sweep.add_argument("--cell-timeout", type=_positive_float,
                       metavar="SECONDS",
                       help="per-cell wall-clock budget; shards that "
                            "blow it are requeued cell by cell and a "
                            "cell that fails alone is quarantined")
    sweep.add_argument("--breakdown", action="store_true",
                       help="attach a critical-path component "
                            "breakdown (software/wire/contention/"
                            "fault-recovery) to every cell; sim mode "
                            "only, changes every cache fingerprint")
    sweep.add_argument("--decision-table", metavar="PATH",
                       help="BENCH_tuning.json decision table; cells "
                            "it covers run the tuned algorithm instead "
                            "of the machine's fixed choice (sim mode "
                            "only)")
    sweep.set_defaults(run=_run_sweep)

    tune = sub.add_parser(
        "tune",
        help="race candidate collective algorithms per (machine, op, "
             "m, p), fit crossover points, and emit the "
             "BENCH_tuning.json decision table")
    tune.add_argument("--machines", metavar="NAMES",
                      default="sp2,t3d,paragon",
                      help="machines to tune (comma-separated, "
                           "default sp2,t3d,paragon)")
    tune.add_argument("--ops", metavar="NAMES",
                      help="restrict tuning to these collectives "
                           "(comma-separated)")
    tune.add_argument("--grid", default="paper",
                      help="tuning grid preset (paper, smoke)")
    _add_shared(tune, "--workers")
    tune.add_argument("--out", metavar="PATH",
                      default="BENCH_tuning.json",
                      help="artifact path (default BENCH_tuning.json)")
    _add_shared(tune, "--cache-dir", "--no-cache", "--iterations",
                "--runs", "--seed")
    tune.add_argument("--top", type=_positive_int, default=10,
                      help="flipped cells to list (default 10)")
    tune.set_defaults(run=_run_tune)

    chaos = sub.add_parser(
        "chaos",
        help="run one collective clean and under a fault-plan preset; "
             "report the latency penalty and injector counters")
    chaos.add_argument("--faults", default="single-link-outage",
                       metavar="PRESET",
                       help="fault-plan preset (default "
                            "single-link-outage)")
    _add_shared(chaos, *_POINT, "--iterations", "--seed",
                **_CAPTURE_POINT, run=_run_chaos)
    chaos.add_argument("--curves", action="store_true",
                       help="also print clean vs faulty T0(p) curves "
                            "over the bench node counts")
    chaos.add_argument("--out", metavar="PATH",
                       help="also dump the injector counters and the "
                            "faulty run's full metrics snapshot as "
                            "JSON")

    critpath = sub.add_parser(
        "critpath",
        help="trace one collective and print its causal critical "
             "path with per-component time attribution")
    _add_shared(critpath, *_POINT, "--iterations", "--seed",
                **_CAPTURE_POINT, run=_run_critpath)
    critpath.add_argument("--faults", metavar="PRESET",
                          help="run under a fault-plan preset so "
                               "recovery work (retransmits, backoff, "
                               "detours) appears in the attribution")
    critpath.add_argument("--steps", type=_positive_int, default=None,
                          metavar="N",
                          help="print only the first N chain steps")
    critpath.add_argument("--csv", metavar="PATH",
                          help="also write the chain (plus totals) "
                               "as CSV")

    audit = sub.add_parser(
        "audit",
        help="compare a sweep artifact's cells against the paper's "
             "Table 3 closed forms; exits non-zero on tolerance "
             "breach")
    audit.add_argument("artifact", nargs="?",
                       default="BENCH_sweep.json",
                       help="sweep artifact to audit (default "
                            "BENCH_sweep.json)")
    audit.add_argument("--rtol", type=_positive_float, default=0.25,
                       help="max |relative error| per cell "
                            "(default 0.25)")
    audit.add_argument("--out", metavar="PATH",
                       help="also write the byte-stable drift trend "
                            "artifact (BENCH_drift.json)")
    audit.add_argument("--top", type=_positive_int, default=5,
                       help="worst cells / breaches to list")
    audit.add_argument("--trend", action="store_true",
                       help="also render drift history as terminal "
                            "sparklines (this audit is the newest "
                            "generation)")
    audit.add_argument("--history", action="append", metavar="PATH",
                       help="prior drift artifact for --trend, oldest "
                            "first (repeatable; default: the --out "
                            "path, or BENCH_drift.json, if it already "
                            "exists)")
    audit.set_defaults(run=_run_audit)

    dash = sub.add_parser(
        "dash",
        help="index every artifact into the canonical BENCH_ledger."
             "json bundle and render the self-contained HTML "
             "dashboard (replay, drift/perf trends, tuner heatmaps)")
    dash.add_argument("--artifacts", action="append", metavar="PATH",
                      help="artifact file or directory to index "
                           "(repeatable; default: the current "
                           "directory, scanned recursively)")
    dash.add_argument("--capture", metavar="MACHINE:OP",
                      help="also run one traced collective and embed "
                           "its hop-by-hop replay (e.g. t3d:broadcast)")
    _add_shared(dash, "--bytes", "--nodes", "--seed", capture=True,
                **_CAPTURE_POINT, run=_run_dash)
    dash.add_argument("--faults", metavar="PRESET",
                      help="run the --capture collective under a "
                           "fault-plan preset so the replay shows "
                           "recovery work")
    dash.add_argument("--out", metavar="DIR", default="site",
                      help="output directory (default site/); never "
                           "scanned for inputs")
    dash.add_argument("--open", action="store_true",
                      help="open the generated page in a browser")

    diff = sub.add_parser(
        "diff",
        help="compare a sweep artifact against a baseline; exits "
             "non-zero when they differ")
    diff.add_argument("baseline",
                      help="baseline artifact (e.g. the checked-in "
                           "tests/golden/BENCH_sweep_baseline.json)")
    diff.add_argument("current", nargs="?", default="BENCH_sweep.json",
                      help="artifact to check (default "
                           "BENCH_sweep.json)")
    diff.add_argument("--rtol", type=float, default=0.0,
                      help="relative tolerance (default 0: bitwise)")
    diff.add_argument("--atol", type=float, default=0.0,
                      help="absolute tolerance in us (default 0)")
    diff.set_defaults(run=_run_diff)
    return parser


def _csv_names(text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse a ``--machines``/``--ops`` comma list (None = no filter)."""
    if text is None:
        return None
    return tuple(name.strip() for name in text.split(",")
                 if name.strip())


def _filter_grid(grid, machines: Optional[Tuple[str, ...]],
                 ops: Optional[Tuple[str, ...]], kind: str = "grid"):
    """Restrict a sweep or tuning grid to the requested machines/ops.

    Raises ``ValueError`` when a filter names something the ``kind``
    of grid does not have.  Only sweep grids have machines and a
    barrier panel.
    """
    def kept(flag, names, known):
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise ValueError(
                f"{flag} {','.join(unknown)} not in {kind} "
                f"{grid.name!r} (has {', '.join(known)})")
        return tuple(name for name in known if name in names)

    changes = {}
    if machines is not None:
        changes["machines"] = kept("--machines", machines,
                                   grid.machines)
    if ops is not None:
        barrier = getattr(grid, "include_barrier", False)
        names = kept("--ops", ops,
                     grid.ops + (("barrier",) if barrier else ()))
        changes["ops"] = tuple(op for op in grid.ops if op in names)
        if barrier:
            changes["include_barrier"] = "barrier" in names
    return dataclasses.replace(grid, **changes)


def _run_figure(args) -> None:
    from .bench import plot_figure, write_figure_csv, write_figure_json
    data = _FIGURES[args.number]()
    print(data.format())
    if args.plot:
        print()
        print(plot_figure(data))
    if args.csv:
        print(f"wrote {write_figure_csv(data, args.csv)}")
    if args.json:
        print(f"wrote {write_figure_json(data, args.json)}")


def _run_measure(args) -> None:
    sample = measure_collective(args.machine, args.op, args.bytes,
                                args.nodes, _protocol(args))
    print(f"T({args.bytes} B, {args.nodes} nodes) on "
          f"{args.machine} {args.op}: {format_us(sample.time_us)}")
    print(f"  per-process min/mean/max: "
          f"{format_us(sample.process_min_us)} / "
          f"{format_us(sample.process_mean_us)} / "
          f"{format_us(sample.process_max_us)}")
    print(f"  runs: {[round(t, 1) for t in sample.run_times_us]}")


def _run_sensitivity(args) -> None:
    from .core import format_sensitivities, scan_sensitivities
    results = scan_sensitivities(get_machine_spec(args.machine),
                                 args.op, args.bytes, args.nodes)
    print(format_sensitivities(results, top=args.top))


def _run_app(args) -> None:
    from .apps import simulate_fft2d, simulate_samplesort, simulate_stap
    runner = {"stap": simulate_stap, "fft2d": simulate_fft2d,
              "samplesort": simulate_samplesort}[args.name]
    print(runner(args.machine, args.nodes).format())


def _run_trace(args) -> None:
    from .obs import write_chrome_trace, write_spans_csv
    capture = _capture(args, max_spans=args.max_spans)
    print(capture.summary())
    if args.out:
        print(f"wrote {write_chrome_trace(capture.tracer, args.out)}"
              f" (open in ui.perfetto.dev)")
    if args.csv:
        print(f"wrote {write_spans_csv(capture.tracer, args.csv)}")


def _run_profile(args) -> None:
    from .obs import (
        format_utilization_report,
        write_folded_stacks,
        write_profile_csv,
    )
    capture = _capture(args, trace=False, profile=True, work=args.work)
    print(capture.summary())
    print()
    print(format_utilization_report(capture.world.machine,
                                    capture.elapsed_us, top=args.top))
    print()
    print(capture.profiler.format_report(top=args.top))
    if args.work:
        print()
        print(capture.work.format_report())
    print()
    print(capture.metrics.format_report())
    if args.csv:
        print(f"wrote {write_profile_csv(capture.profiler, args.csv)}")
    if args.folded:
        print(f"wrote {write_folded_stacks(capture.profiler, args.folded)}")


def _run_tune(args) -> int:
    from .tuner import run_tune, tune_grid, write_tuning
    with _usage(KeyError, ValueError):
        grid = _filter_grid(tune_grid(args.grid), None,
                            _csv_names(args.ops), kind="tuning grid")
        machines = _csv_names(args.machines) or ()
        if not machines:
            raise ValueError("--machines names no machines")
        result = run_tune(machines, grid, config=_protocol(args),
                          workers=args.workers,
                          cache_dir=args.cache_dir,
                          use_cache=not args.no_cache)
    print(f"tune {grid.name} (machines={','.join(sorted(set(machines)))}, "
          f"workers={args.workers}): {result.summary()}")
    for cell, reason in sorted(result.quarantined.items()):
        print(f"quarantined {cell.key()}: {reason}", file=sys.stderr)
    for flip in result.flips[:args.top]:
        print(f"  {flip['machine']}/{flip['op']}/{flip['nbytes']}/"
              f"{flip['p']}: {flip['default_algorithm']} -> "
              f"{flip['algorithm']} ({flip['speedup']:.2f}x)")
    if len(result.flips) > args.top:
        print(f"  ... {len(result.flips) - args.top} more flips")
    print(f"wrote {write_tuning(result.artifact(), args.out)}")
    return 1 if result.quarantined else 0


def _run_sweep(args) -> int:
    from .bench import write_sweep_csv
    from .runner import (
        ResultCache,
        SweepConfig,
        build_artifact,
        default_cache_dir,
        preset_grid,
        run_sweep,
        write_artifact,
    )
    with _usage(KeyError, ValueError):
        grid = _filter_grid(preset_grid(args.grid),
                            _csv_names(args.machines),
                            _csv_names(args.ops))
    cells = grid.cells()
    if not cells:
        # An empty sweep is always a spelling mistake, not a request.
        raise _UsageError(f"grid {grid.name!r} is empty after "
                          f"filtering; nothing to sweep")
    measurement = _protocol(args, _fault_plan(args.faults))
    if args.breakdown and args.mode != "sim":
        raise _UsageError("--breakdown requires --mode sim (closed "
                          "forms have no trace to analyse)")
    if args.decision_table:
        if args.mode != "sim":
            raise _UsageError("--decision-table requires --mode sim "
                              "(closed forms are keyed to the machines' "
                              "fixed algorithms)")
        from .tuner import load_decision_table
        with _usage(OSError, ValueError):
            table = load_decision_table(args.decision_table)
        cells = table.override_cells(cells)
    config = SweepConfig(mode=args.mode, workers=args.workers,
                         measurement=measurement,
                         cache_dir=args.cache_dir,
                         use_cache=not args.no_cache,
                         cell_timeout_s=args.cell_timeout,
                         breakdown=args.breakdown)
    if args.clear_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
        print(f"cleared {cache.clear()} cached cells")
    # An invalid per-cell algorithm override (e.g. a stale or
    # hand-edited decision table) is a usage error, not a crash.
    with _usage(ValueError):
        result = run_sweep(cells, config)
    print(f"sweep {grid.name} (mode={config.mode}, "
          f"workers={config.workers}): {result.summary()}")
    for cell, reason in sorted(result.quarantined.items()):
        print(f"quarantined {cell.key()}: {reason}", file=sys.stderr)
    artifact = build_artifact(result, grid.name, config)
    print(f"wrote {write_artifact(artifact, args.out)}")
    if args.csv:
        print(f"wrote {write_sweep_csv(artifact, args.csv)}")
    return 1 if result.quarantined else 0


def _run_chaos(args) -> None:
    from .bench import degradation_curves, run_chaos
    from .canonical import write_canonical
    # Chaos always runs a plan; "none" is the fault-free control.
    plan = _fault_plan(args.faults) or FAULT_FREE
    run = run_chaos(args.machine, args.op, plan,
                    nbytes=args.bytes, num_nodes=args.nodes,
                    iterations=args.iterations, seed=args.seed,
                    metrics=args.out is not None)
    print(run.format())
    if args.out:
        write_canonical(run.document(), args.out)
        print(f"wrote {args.out}")
    if args.curves:
        print()
        print(degradation_curves(args.machine, args.op, plan).format())


def _run_critpath(args) -> None:
    from .obs.critpath import write_critpath_csv
    capture = _capture(args, metrics=False,
                       faults=_fault_plan(args.faults))
    path = capture.critical_path()
    print(path.format(top=args.steps))
    if args.csv:
        print(f"wrote {write_critpath_csv(path, args.csv)}")


def _run_perf(args) -> int:
    from .bench.perfsuite import (
        DEFAULT_MIN_RATIO,
        build_perf_artifact,
        check_perf_artifact,
        load_perf_artifact,
        run_perf_suite,
        write_perf_artifact,
    )
    from .obs import EngineProfiler, write_folded_stacks
    profiler = EngineProfiler() if args.flame else None
    runs = run_perf_suite(args.suite, profiler=profiler)
    artifact = build_perf_artifact(runs, suite=args.suite)
    total = artifact["throughput"]["total"]
    print(f"engine perf suite '{args.suite}': {len(runs)} workloads, "
          f"{total['events_fired']} events in {total['wall_s']:.2f} s "
          f"({total['events_per_sec']:,.0f} events/s)")
    for run in runs:
        print(f"  {run.workload:<36s} "
              f"events={run.work['events_fired']:<9d} "
              f"wall={run.wall_s * 1e3:9.1f} ms")
    if profiler is not None:
        print()
        print(profiler.format_report(top=args.top))
        print(f"wrote {write_folded_stacks(profiler, args.flame)}")
    if args.out:
        print(f"wrote {write_perf_artifact(artifact, args.out)}")
    if not args.check:
        return 0
    with _usage(OSError, ValueError):
        baseline = load_perf_artifact(args.check)
    result = check_perf_artifact(
        artifact, baseline, min_ratio=args.min_ratio or DEFAULT_MIN_RATIO)
    print()
    print(result.format())
    return 0 if result.passed() else 1


def _run_audit(args) -> int:
    from pathlib import Path

    from .obs.drift import (
        DriftTolerance,
        audit_artifact,
        build_drift_artifact,
        format_drift_trend,
        load_drift_artifact,
        write_drift_artifact,
    )
    from .runner import load_artifact
    with _usage(OSError, ValueError):
        artifact = load_artifact(args.artifact)
    report = audit_artifact(artifact,
                            DriftTolerance(max_rel_error=args.rtol))
    print(report.format(top=args.top))
    payload = build_drift_artifact(report, worst=args.top)
    if args.trend:
        # Prior generations load before --out overwrites its file.
        history = args.history
        if history is None:
            default = Path(args.out or "BENCH_drift.json")
            history = [str(default)] if default.is_file() else []
        with _usage(OSError, ValueError):
            generations = [load_drift_artifact(path)
                           for path in history]
        generations.append(payload)
        print()
        print(format_drift_trend(generations))
    if args.out:
        print(f"wrote {write_drift_artifact(payload, args.out)}")
    return 0 if report.passed() else 1


def _run_dash(args) -> None:
    from pathlib import Path

    from .dash import write_dashboard
    from .obs.capture import write_replay_frames
    from .obs.ledger import build_ledger, discover_artifacts, write_ledger
    out_dir = Path(args.out)
    with _usage(ValueError):
        entries = discover_artifacts(args.artifacts or ["."],
                                     exclude=[out_dir])
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.capture:
        args.machine, _, args.op = args.capture.partition(":")
        if args.machine not in _MACHINES or \
                args.op not in COLLECTIVE_OPS:
            raise _UsageError(f"--capture wants MACHINE:OP with machine "
                              f"one of sp2/t3d/paragon, got "
                              f"{args.capture!r}")
        _check_nodes(args.machine, args.nodes)
        capture = _capture(args, faults=_fault_plan(args.faults))
        print(capture.summary())
        replay = capture.to_replay_frames()
        name = f"replay_{args.machine}_{args.op}.json"
        print(f"wrote {write_replay_frames(replay, out_dir / name)}")
        entries.append((name, "replay", replay))
    ledger = build_ledger(entries)
    census = ", ".join(f"{family} x{count}" for family, count
                       in sorted(ledger["families"].items()))
    print(f"ledger: {len(ledger['entries'])} artifact(s) "
          f"({census or 'none'}), bundle digest "
          f"{ledger['bundle_digest'][:16]}")
    print(f"wrote {write_ledger(ledger, out_dir / 'BENCH_ledger.json')}")
    page = write_dashboard(ledger, out_dir)
    print(f"wrote {page}")
    if args.open:
        import webbrowser
        webbrowser.open(page.resolve().as_uri())


def _run_diff(args) -> int:
    from .runner import diff_artifacts, load_artifact
    with _usage(OSError, ValueError):
        baseline = load_artifact(args.baseline)
        current = load_artifact(args.current)
    diff = diff_artifacts(baseline, current, rtol=args.rtol,
                          atol=args.atol)
    print(diff.format())
    return 0 if diff.clean() else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.fast:
        os.environ["REPRO_BENCH_FAST"] = "1"
    try:
        if "machine" in args:
            _check_nodes(args.machine, args.nodes)
        return args.run(args) or 0
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The sweep pool's context manager has already terminated its
        # workers by the time the interrupt propagates here.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
