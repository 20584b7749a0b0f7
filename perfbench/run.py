"""The repository benchmark: paper-artifact workloads timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-trees --seed 1997 \\
        --seconds 30 --trace 0

Each repetition is a fresh ``worker.py`` process with an empty result
cache; the run repeats until the next repetition would overrun
``--seconds`` (at least once) and reports medians.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` pairs every untraced
repetition with a traced one of the same inputs and prints the
per-layer split, the tracing overhead and a per-cell cost table.

Correctness is checked in the same command: each pass's output is
reduced to a sha256 digest (cell times to 9 significant digits, or the
tune's decision table), and the run fails its ``correct`` flag if the
cold, warm, traced or repeated passes disagree, or if any cell is
quarantined or has a non-finite or non-positive time.

End-to-end times are reported in reference seconds: each is scaled by
the host speed measured next to it with ``hostspeed.py``, so that a
shared host's slow spells do not read as regressions.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload with and without tracing.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from accounting import failed_cells, median
from workloads import SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
#: Scratch space for the result caches, inside the checkout.
WORK_DIR = ".bench_work"
#: A worker that takes longer than this is stuck: the run fails.
WORKER_TIMEOUT_S = 120

#: (name, unit, better, bound): what ``--trace 0`` reports.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("warm_wall_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("table3_within_share", "fraction", "higher", 0.15),
    ("table3_median_abs_err", "fraction", "lower", 0.1),
    ("tuned_gain_geomean", "ratio", "higher", 0.05),
)

#: (name, unit, better): what ``--trace 1`` reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.events_fired", "count", "lower"),
    ("sim.engine.heap_peak", "count", "lower"),
    ("sim.resources.self_s", "s", "lower"),
    ("sim.resources.requests", "count", "lower"),
    ("sim.resources.occupancies", "count", "lower"),
    ("network.fabric.self_s", "s", "lower"),
    ("network.fabric.link_acquisitions", "count", "lower"),
    ("network.fabric.stall_share", "fraction", "lower"),
    ("network.fabric.shortcircuit_share", "fraction", "higher"),
    ("mpi.transport.self_s", "s", "lower"),
    ("mpi.transport.messages_sent", "count", "lower"),
    ("mpi.transport.retransmissions_per_msg", "ratio", "lower"),
    ("mpi.rank.self_s", "s", "lower"),
    ("machines.build_s", "s", "lower"),
    ("machines.worlds_built", "count", "lower"),
    ("core.measurement.self_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("runner.cache.get_s", "s", "lower"),
    ("runner.cache.put_s", "s", "lower"),
    ("runner.cache.hit_share", "fraction", "higher"),
    ("runner.fingerprint_s", "s", "lower"),
    ("runner.cell_wall_p50_s", "s", "lower"),
    ("runner.cell_wall_max_s", "s", "lower"),
    ("tuner.cells_raced", "count", "lower"),
    ("tuner.fit_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> Dict[str, str]:
    """The workers' environment: the checkout's ``src`` on the path,
    and no ``REPRO_*`` override (scheduler, cache root, fast grids) so
    every run measures the defaults."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(workload: str, seed: int, size: str, mode: str,
                work_dir: str, audit: bool = False) -> dict:
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--size", size, "--mode", mode,
               "--work-dir", work_dir] + (["--audit"] if audit else [])
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              env=_worker_env(), text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker for {workload} timed out "
                             f"after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker for {workload} exited "
                             f"with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} worker for {workload} printed "
                             f"nothing")
    return json.loads(lines[-1])


def _repetitions(seconds: float, one_rep) -> List:
    """Call ``one_rep(index)`` until the next call would overrun
    ``seconds`` (judged by the slowest call so far); always at least
    once."""
    reps, slowest = [], 0.0
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        reps.append(one_rep(len(reps)))
        slowest = max(slowest, time.perf_counter() - rep_started)
        if time.perf_counter() - started + slowest > seconds:
            return reps


def _in_reference_seconds(plain: dict) -> dict:
    """A plain worker's times in reference seconds: each scaled by the
    host speed measured next to it (see ``hostspeed.py``)."""
    scale, warm_scale = plain["host_scale"], plain["warm_host_scale"]
    return dict(plain, setup_s=plain["setup_s"] * scale,
                wall_s=plain["wall_s"] * scale,
                warm_times=[seconds * warm_scale
                            for seconds in plain["warm_times"]])


def _check(reps: Sequence[Sequence[dict]]) -> Tuple[bool, int, int, str]:
    """``(digests agree, attempted, failed, digest)`` over ``reps``.

    Every digest of every worker of every repetition must be the
    same, and a cell fails if its results differ between the workers
    of one repetition (untraced and traced)."""
    digests = {digest for rep in reps for worker in rep
               for digest in worker["digests"]}
    keys = sorted(reps[0][0]["records"])
    failed = sum(len(set(failed_cells(
        keys, [worker["records"] for worker in rep])).union(
            *(worker["failed_cells"] for worker in rep))) for rep in reps)
    return len(digests) == 1, len(keys) * len(reps), failed, \
        sorted(digests)[0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out=sys.stdout) -> dict:
    """Run one workload and return its result object (also printed,
    after a human-readable report, to ``out``)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        def one_rep(index):
            reps = [_run_worker(workload, seed, size, "plain", work_dir,
                                audit=index == 0 and not trace)]
            if trace:
                reps.append(_run_worker(workload, seed, size, "traced",
                                        work_dir))
            return reps

        reps = _repetitions(seconds, one_rep)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run's directory is still in it
            pass

    agree, attempted, failed, digest = _check(reps)
    if trace:
        names = [(name, unit) for name, unit, _ in PER_LAYER]
        samples = [dict(traced["layers"], **{
            "trace.overhead_ratio": traced["layers"]["trace.wall_s"]
            / (plain["wall_s"] + plain["warm_wall_s"])})
            for plain, traced in reps]
    else:
        names = [(name, unit) for name, unit, _, _ in END_TO_END]
        samples = [_in_reference_seconds(plain) for plain, in reps]
    values = {name: median([sample[name] for sample in samples
                            if name in sample]) for name, _ in names}
    if not trace:
        values["warm_wall_s"] = median([seconds for sample in samples
                                        for seconds in sample["warm_times"]])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}

    print(f"# {workload} seed={seed} trace={int(trace)} "
          f"repetitions={len(reps)} cells={attempted // len(reps)}",
          file=out)
    for name, unit in names:
        print(f"{name:<40s} {values[name]:>16.6g} {unit}", file=out)
    if not trace:
        print(f"{'raw wall_s, setup_s, host scale':<40s} " + " ".join(
            f"{median([plain[key] for plain, in reps]):.6g}"
            for key in ("wall_s", "setup_s", "host_scale")), file=out)
    print(f"digest {workload} seed={seed} sha256={digest} "
          f"{'agree' if agree else 'DISAGREE'}", file=out)
    if trace:
        _print_cell_table(reps[0][1]["cell_table"], out)
    return {"correct": agree and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_cell_table(rows: Sequence[Sequence], out) -> None:
    """The traced run's per-cell costs, most expensive first."""
    total = sum(row[1] for row in rows) or 1.0
    print(f"{'cell':<52s} {'wall_s':>9s} {'share':>6s} {'events':>9s} "
          f"cold/warm", file=out)
    for key, seconds, events, cold, warm in rows:
        print(f"{key:<52s} {seconds:9.4f} {seconds / total:6.1%} "
              f"{events:9d} {cold}/{warm}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paper-artifact workloads timed end to end.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="grid size (smoke: tiny grids for tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("run.py: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    runs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False,
                                                                  True)]
    results = []
    try:
        for workload, trace in runs:
            results.append(run_workload(workload, args.seed, args.seconds,
                                        trace, args.size))
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0], sort_keys=True))
    else:
        print(json.dumps({
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {f"{workload}{':traced' if trace else ''}:{name}":
                        metric
                        for (workload, trace), result in zip(runs, results)
                        for name, metric in result["metrics"].items()},
        }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
