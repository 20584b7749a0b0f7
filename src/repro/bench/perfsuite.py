"""Fixed workload suite measuring the simulator's own performance.

The figure benches measure the *modelled machines*; this suite
measures the *simulator*.  It runs a fixed set of workloads — the
``bench_micro_simulator`` kernels plus representative collectives at
p=64/256 on all three machines — under a
:class:`~repro.obs.perf.WorkMeter` and emits the canonical
``BENCH_engine.json`` trajectory artifact with two sections:

``work``
    Deterministic integer work counters (plus simulated time) per
    workload.  Byte-stable across runs, processes, and hosts — gated
    by *identity*, exactly like the sweep baseline's cell times: any
    change means the engine is doing different work and must be
    explained by the PR that caused it.

``throughput``
    Host wall-clock figures (events/sec).  Inherently noisy, so gated
    by *ratio* with generous slack, and never byte-compared.

``repro-bench perf --check BENCH_engine.json`` exits nonzero on any
work-counter mismatch or on aggregate throughput below
``min_ratio`` x the baseline — the regression gate the engine speed
overhaul (and every PR after it) is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..canonical import dumps_canonical as dumps_perf_artifact
from ..canonical import load_canonical
from ..canonical import write_canonical as write_perf_artifact
from ..obs.perf import WorkMeter
from ..obs.profiler import EngineProfiler
from ..sim import SIM_VERSION

__all__ = [
    "PERF_SCHEMA",
    "PerfRun",
    "PerfCheckResult",
    "perf_workload_names",
    "run_workload",
    "run_perf_suite",
    "build_perf_artifact",
    "work_section_text",
    "check_perf_artifact",
    "dumps_perf_artifact",
    "write_perf_artifact",
    "load_perf_artifact",
]

PathLike = Union[str, Path]

PERF_SCHEMA = "repro-engine-perf/1"

#: Default floor for ``current events/sec / baseline events/sec``.
#: Generous because the baseline was measured on a different host:
#: the gate exists to catch order-of-magnitude engine regressions,
#: not scheduler jitter.
DEFAULT_MIN_RATIO = 0.33


def _round9(value: float) -> float:
    """9-significant-digit rounding (the repo's golden convention)."""
    return float(f"{value:.9g}")


@dataclass(frozen=True)
class PerfRun:
    """One workload's measurement: deterministic work + noisy clock."""

    workload: str
    work: Dict[str, int]
    sim_time_us: float
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.work.get("events_fired", 0) / self.wall_s


# -- the fixed workloads --------------------------------------------------

def _kernel_engine_timeouts(env) -> float:
    def proc():
        for _ in range(400000):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    return env.now


def _kernel_engine_sleep_pool(env) -> float:
    """The engine-internal pooled-timeout path (``Environment.sleep``):
    the primitive every hot model path now rides on."""
    def proc():
        for _ in range(800000):
            yield env.sleep(1.0)

    env.process(proc())
    env.run()
    return env.now


def _kernel_resource_handoff(env) -> float:
    from ..sim import Resource

    resource = Resource(env, capacity=1)

    def worker():
        for _ in range(4000):
            request = resource.request()
            yield request
            yield env.timeout(0.1)
            resource.release(request)

    for index in range(10):
        env.process(worker(), name=f"worker-{index}")
    env.run()
    return env.now


def _kernel_store_pipeline(env) -> float:
    from ..sim import Store

    store = Store(env)

    def producer():
        for item in range(20000):
            store.put(item)
            yield env.timeout(0.5)

    def consumer():
        for _ in range(20000):
            yield store.get()

    env.process(producer(), name="producer")
    env.process(consumer(), name="consumer")
    env.run()
    return env.now


def _micro(kernel
           ) -> Callable[[WorkMeter, Optional[EngineProfiler]], float]:
    def run(meter: WorkMeter,
            profiler: Optional[EngineProfiler]) -> float:
        from ..sim import Environment

        env = Environment()
        env.work = meter
        env.profiler = profiler
        return kernel(env)

    return run


def _ptp(machine: str, messages: int, nbytes: int
         ) -> Callable[[WorkMeter, Optional[EngineProfiler]], float]:
    def run(meter: WorkMeter,
            profiler: Optional[EngineProfiler]) -> float:
        from ..mpi import MpiWorld

        world = MpiWorld(machine, 2, seed=0)
        world.env.work = meter
        world.env.profiler = profiler

        def program(ctx):
            if ctx.rank == 0:
                for tag in range(messages):
                    yield from ctx.send(1, nbytes, tag=tag)
                return None
            for tag in range(messages):
                yield from ctx.recv(0, tag=tag)
            return None

        world.run(program)
        return world.now

    return run


def _collective(machine: str, op: str, nbytes: int, p: int,
                iterations: int = 1
                ) -> Callable[[WorkMeter, Optional[EngineProfiler]],
                              float]:
    def run(meter: WorkMeter,
            profiler: Optional[EngineProfiler]) -> float:
        from ..mpi import MpiWorld

        world = MpiWorld(machine, p, seed=0)
        world.env.work = meter
        world.env.profiler = profiler
        return world.run_collective(op, nbytes, iterations=iterations)

    return run


def _workloads() -> "Dict[str, Tuple[Tuple[str, ...], Callable]]":
    """Name -> (suites it belongs to, runner).  Insertion order is the
    execution (and artifact) order; names are the artifact keys, so
    renaming one invalidates baselines just like changing its work."""
    table: Dict[str, Tuple[Tuple[str, ...], Callable]] = {}
    both = ("smoke", "default")
    table["micro/engine-timeouts"] = (both, _micro(_kernel_engine_timeouts))
    table["micro/engine-sleep-pool"] = \
        (both, _micro(_kernel_engine_sleep_pool))
    table["micro/resource-handoff"] = \
        (both, _micro(_kernel_resource_handoff))
    table["micro/store-pipeline"] = (both, _micro(_kernel_store_pipeline))
    table["micro/ptp-t3d-p2"] = (both, _ptp("t3d", 100, 64))
    full = ("default",)
    for machine in ("sp2", "t3d", "paragon"):
        table[f"collective/{machine}-broadcast-p64"] = \
            (full, _collective(machine, "broadcast", 4096, 64))
        table[f"collective/{machine}-broadcast-p256"] = \
            (full, _collective(machine, "broadcast", 4096, 256))
        table[f"collective/{machine}-allreduce-p256"] = \
            (full, _collective(machine, "allreduce", 4096, 256))
        table[f"collective/{machine}-alltoall-p64"] = \
            (full, _collective(machine, "alltoall", 256, 64))
    # Only the T3D scales to 1024 nodes (sp2 caps at 512, paragon at
    # 416), so the paper-scale collectives run there.
    table["collective/t3d-broadcast-p1024"] = \
        (full, _collective("t3d", "broadcast", 4096, 1024))
    table["collective/t3d-allreduce-p1024"] = \
        (full, _collective("t3d", "allreduce", 4096, 1024))
    return table


def perf_workload_names(suite: str = "default") -> List[str]:
    """The workloads ``suite`` runs, in execution order."""
    names = [name for name, (suites, _run) in _workloads().items()
             if suite in suites]
    if not names:
        raise ValueError(f"unknown perf suite {suite!r} "
                         f"(expected 'smoke' or 'default')")
    return names


def run_workload(name: str,
                 profiler: Optional[EngineProfiler] = None) -> PerfRun:
    """Run one named workload under a fresh :class:`WorkMeter`."""
    try:
        _suites, runner = _workloads()[name]
    except KeyError:
        raise ValueError(f"unknown perf workload {name!r}") from None
    meter = WorkMeter()
    started = perf_counter()
    sim_time_us = runner(meter, profiler)
    wall_s = perf_counter() - started
    return PerfRun(workload=name, work=meter.snapshot(),
                   sim_time_us=float(sim_time_us), wall_s=wall_s)


def run_perf_suite(suite: str = "default",
                   profiler: Optional[EngineProfiler] = None
                   ) -> List[PerfRun]:
    """Run the whole suite; pass a profiler to collect a flame profile
    across all workloads (work counters are unaffected by profiling)."""
    return [run_workload(name, profiler=profiler)
            for name in perf_workload_names(suite)]


# -- artifact -------------------------------------------------------------

def build_perf_artifact(runs: List[PerfRun],
                        suite: str = "default") -> Dict[str, Any]:
    """Assemble the canonical ``BENCH_engine.json`` document.

    The ``work`` section (counters + simulated time) is deterministic
    and byte-compared; the ``throughput`` section is wall-clock and
    must never be.  No timestamps, hostnames, or environment details.
    """
    total_fired = sum(run.work.get("events_fired", 0) for run in runs)
    total_wall = sum(run.wall_s for run in runs)
    return {
        "schema": PERF_SCHEMA,
        "sim_version": SIM_VERSION,
        "suite": suite,
        "work": {
            run.workload: {
                "counters": dict(run.work),
                "sim_time_us": _round9(run.sim_time_us),
            } for run in runs
        },
        "throughput": {
            "workloads": {
                run.workload: {
                    "wall_s": _round9(run.wall_s),
                    "events_per_sec": _round9(run.events_per_sec),
                } for run in runs
            },
            "total": {
                "events_fired": total_fired,
                "wall_s": _round9(total_wall),
                "events_per_sec": _round9(
                    total_fired / total_wall if total_wall > 0 else 0.0),
            },
        },
    }


def work_section_text(artifact: Mapping[str, Any]) -> str:
    """Canonical serialization of just the ``work`` section — the
    byte-compared payload (plus schema/suite/sim_version identity)."""
    payload = {
        "schema": artifact.get("schema"),
        "sim_version": artifact.get("sim_version"),
        "suite": artifact.get("suite"),
        "work": artifact.get("work", {}),
    }
    return dumps_perf_artifact(payload)


@dataclass
class PerfCheckResult:
    """Outcome of gating a fresh run against a baseline artifact."""

    work_mismatches: List[str]
    baseline_events_per_sec: float
    current_events_per_sec: float
    min_ratio: float

    @property
    def throughput_ratio(self) -> float:
        if self.baseline_events_per_sec <= 0:
            return 1.0
        return self.current_events_per_sec / self.baseline_events_per_sec

    @property
    def throughput_ok(self) -> bool:
        return self.throughput_ratio >= self.min_ratio

    def passed(self) -> bool:
        return not self.work_mismatches and self.throughput_ok

    def format(self) -> str:
        lines = []
        if self.work_mismatches:
            lines.append(f"work-counter mismatches "
                         f"({len(self.work_mismatches)}):")
            lines.extend(f"  {message}"
                         for message in self.work_mismatches)
        else:
            lines.append("work counters: identical to baseline")
        lines.append(
            f"throughput: {self.current_events_per_sec:,.0f} events/s "
            f"vs baseline {self.baseline_events_per_sec:,.0f} "
            f"(ratio {self.throughput_ratio:.2f}, floor "
            f"{self.min_ratio:.2f}) -> "
            f"{'ok' if self.throughput_ok else 'REGRESSION'}")
        lines.append("perf check: "
                     + ("PASS" if self.passed() else "FAIL"))
        return "\n".join(lines)


def check_perf_artifact(current: Mapping[str, Any],
                        baseline: Mapping[str, Any],
                        min_ratio: float = DEFAULT_MIN_RATIO
                        ) -> PerfCheckResult:
    """Gate ``current`` against ``baseline``.

    Work counters are compared for exact equality per workload and per
    counter (missing/extra workloads are mismatches too).  Throughput
    compares only the suite aggregate — individual micro kernels are
    over in milliseconds and too noisy to gate.
    """
    if min_ratio <= 0:
        raise ValueError(f"min_ratio must be > 0, got {min_ratio}")
    mismatches: List[str] = []
    if current.get("sim_version") != baseline.get("sim_version"):
        mismatches.append(
            f"sim_version changed: {baseline.get('sim_version')!r} -> "
            f"{current.get('sim_version')!r}")
    current_work = current.get("work", {})
    baseline_work = baseline.get("work", {})
    for name in sorted(set(baseline_work) | set(current_work)):
        if name not in current_work:
            mismatches.append(f"{name}: missing from current run")
            continue
        if name not in baseline_work:
            mismatches.append(f"{name}: not in baseline")
            continue
        ours, theirs = current_work[name], baseline_work[name]
        our_counters = ours.get("counters", {})
        base_counters = theirs.get("counters", {})
        for counter in sorted(set(base_counters) | set(our_counters)):
            mine = our_counters.get(counter)
            base = base_counters.get(counter)
            if mine != base:
                mismatches.append(f"{name}: {counter} {base} -> {mine}")
        if ours.get("sim_time_us") != theirs.get("sim_time_us"):
            mismatches.append(
                f"{name}: sim_time_us {theirs.get('sim_time_us')} -> "
                f"{ours.get('sim_time_us')}")
    base_total = baseline.get("throughput", {}).get("total", {})
    cur_total = current.get("throughput", {}).get("total", {})
    return PerfCheckResult(
        work_mismatches=mismatches,
        baseline_events_per_sec=float(
            base_total.get("events_per_sec", 0.0)),
        current_events_per_sec=float(
            cur_total.get("events_per_sec", 0.0)),
        min_ratio=min_ratio)


def load_perf_artifact(path: PathLike) -> Dict[str, Any]:
    """Load and schema-check an engine-perf artifact."""
    return load_canonical(path, PERF_SCHEMA, "an engine-perf artifact")
