"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition (and, for a traced
run, once more with ``--mode traced``) and reads the single JSON line
it prints.  A fresh process per repetition makes every cold pass
really cold: the result cache is a new empty directory and no
interpreter-level state survives from an earlier pass.

``plain`` mode times, with tracing off:

* set-up — importing :mod:`repro`, resolving machine specs, building
  the grid and preparing the cache directory (the clock starts before
  the first :mod:`repro` import);
* the cold pass — one ``run_sweep``/``run_tune`` call on the empty
  cache;
* warm passes — the same call again, every cell a cache hit, repeated
  until 0.3 s have been spent (at least three times); ``run.py`` takes
  the median over every warm pass of every repetition.

Around the cold pass and after the warm passes it times the
:mod:`hostspeed` reference kernel, whose scale factors turn the raw
times into reference seconds (see ``run.py``).

With ``--audit`` it also audits the cold pass against Table 3, which
depends only on the seed, so ``run.py`` asks for it once per run.

``traced`` mode makes one cold and one warm pass under
:class:`layers.LayerTracer` and reports the per-layer split.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock must start first)
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import hostspeed  # noqa: E402
from accounting import failed_cells, layer_split, median, share  # noqa: E402
from workloads import SIZES, WORKLOADS, Plan  # noqa: E402

WARM_MIN_S = 0.3
WARM_MIN_PASSES = 3
HOST_SAMPLE_S = 0.2


def _setup(args: argparse.Namespace):
    plan = Plan(args.workload, args.seed, args.size)
    from repro.runner import ResultCache

    root = tempfile.mkdtemp(prefix="cache-", dir=args.work_dir)
    return plan, root, ResultCache(root), time.perf_counter() - STARTED


def _timed_call(plan: Plan, cache):
    started = time.perf_counter()
    output = plan.call(cache)
    return output, time.perf_counter() - started


def _keys(plan: Plan):
    return [cell.key() for cell in plan.cells]


def _per_cell(plan: Plan, output, root: str):
    """``(records, sweep output)`` of a pass: a sweep's own results,
    or for a tune the results read back from its cache."""
    sweep = plan.read_back(root) if plan.is_tune else output
    return plan.records(sweep), sweep


def run_plain(args: argparse.Namespace) -> dict:
    plan, root, cache, setup_s = _setup(args)
    try:
        before = hostspeed.sample(HOST_SAMPLE_S)
        cold, wall_s = _timed_call(plan, cache)
        between = hostspeed.sample(HOST_SAMPLE_S)
        digests = [plan.digest(cold)]
        warm_times, warm_records = [], []
        while len(warm_times) < WARM_MIN_PASSES or \
                sum(warm_times) < WARM_MIN_S:
            warm, seconds = _timed_call(plan, cache)
            warm_times.append(seconds)
            digests.append(plan.digest(warm))
            if not plan.is_tune:
                warm_records.append(plan.records(warm))
        after = hostspeed.sample(HOST_SAMPLE_S)
        records, sweep = _per_cell(plan, cold, root)
        failed = failed_cells(_keys(plan), [records, *warm_records])
        audit = {}
        if args.audit:
            audit["table3_within_share"], audit["table3_median_abs_err"] \
                = plan.audit(sweep, root)
        return dict(audit, **{
            "setup_s": setup_s,
            "wall_s": wall_s,
            "warm_wall_s": median(warm_times),
            "warm_times": warm_times,
            "host_scale": hostspeed.scale(before + between),
            "warm_host_scale": hostspeed.scale(between + after),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tuned_gain_geomean": plan.tuned_gain(cold),
            "digests": digests,
            "records": records,
            "failed_cells": failed,
        })
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_traced(args: argparse.Namespace) -> dict:
    from layers import LayerTracer

    plan, root, cache, _ = _setup(args)
    try:
        tracer = LayerTracer()
        tracer.watch_cache(cache)
        outer = tracer.timed("tune" if plan.is_tune else "sweep",
                             plan.call)
        with tracer:
            started = time.perf_counter()
            cold = outer(cache)
            cold_s = time.perf_counter() - started
            cold_lookups = len(tracer.lookups)
            cold_cells = len(tracer.cell_costs)
            started = time.perf_counter()
            warm = outer(cache)
            warm_s = time.perf_counter() - started
        records, sweep = _per_cell(plan, cold, root)
        passes = [records]
        if not plan.is_tune:
            passes.append(plan.records(warm))
        digests = [plan.digest(cold), plan.digest(warm)]

        wall_s = cold_s + warm_s
        sites = {site: stats[2]
                 for site, stats in tracer.profiler.sites.items()}
        layers = layer_split(wall_s, tracer.spans, sites,
                             tracer.meter.snapshot())
        outcomes = tracer.lookups
        hits = sum(1 for _, outcome in outcomes if outcome == "hit")
        cell_walls = [seconds for _, seconds, _ in tracer.cell_costs]
        layers.update({
            "machines.worlds_built": float(tracer.worlds_built),
            "runner.cache.hit_share": share(hits, len(outcomes)),
            "runner.cell_wall_p50_s": median(cell_walls),
            "runner.cell_wall_max_s": max(cell_walls),
            "tuner.cells_raced": float(len(plan.cells)
                                       if plan.is_tune else 0),
            "trace.wall_s": wall_s,
        })

        key_of = {fingerprint: cell.key()
                  for cell, fingerprint in sweep.fingerprints.items()}
        cold_outcome = {key_of.get(fp, fp): outcome
                        for fp, outcome in outcomes[:cold_lookups]}
        warm_outcome = {key_of.get(fp, fp): outcome
                        for fp, outcome in outcomes[cold_lookups:]}
        table = [[key, seconds, events, cold_outcome.get(key, "-"),
                  warm_outcome.get(key, "-")]
                 for key, seconds, events in tracer.cell_costs[:cold_cells]]
        table.sort(key=lambda row: (-row[1], row[0]))
        return {
            "layers": layers,
            "cell_table": table,
            "digests": digests,
            "records": records,
            "failed_cells": failed_cells(_keys(plan), passes),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--mode", choices=("plain", "traced"),
                        required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--audit", action="store_true",
                        help="plain mode: also audit against Table 3")
    args = parser.parse_args(argv)
    result = run_plain(args) if args.mode == "plain" else run_traced(args)
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
