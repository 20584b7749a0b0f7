"""Graceful-degradation benches: latency under faults vs fault-free.

``degradation_curves`` reruns the paper's ``T0(p)`` startup-latency
measurement under a :class:`~repro.faults.FaultPlan` and pairs every
faulty curve with its clean baseline, so the latency penalty of
rerouting and retransmission is visible point by point.
``run_chaos`` runs one collective under a plan and reports what the
injector actually did (reroutes, retransmits, lost messages, aborted
transfers) next to the clean/faulty elapsed times, optionally keeping
the faulty run's full :class:`~repro.obs.MetricsRegistry` snapshot for
JSON export; ``chaos_report`` is its one-string rendering.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core import QUICK_CONFIG, MeasurementConfig, \
    measure_startup_latency
from ..core.report import format_us
from ..faults import FaultPlan
from ..mpi import MpiWorld
from .figures import FigureData
from .workload import bench_machine_sizes

__all__ = ["ChaosRun", "degradation_curves", "chaos_report",
           "fault_counters", "run_chaos"]

#: Injector counters surfaced by :func:`fault_counters`, in report
#: order.
COUNTER_NAMES = (
    "reroutes",
    "unroutable",
    "transfers_aborted",
    "retransmits",
    "spurious_retransmits",
    "messages_lost",
    "messages_corrupted",
)


def degradation_curves(machine: str, op: str, plan: FaultPlan,
                       node_counts: Optional[Sequence[int]] = None,
                       config: MeasurementConfig = QUICK_CONFIG
                       ) -> FigureData:
    """``T0(p)`` with and without ``plan``, as paired figure series.

    Series keys are ``(op, machine, "clean")`` and
    ``(op, machine, plan.name)``; both are measured with the identical
    protocol ``config`` (its ``faults`` field is overridden), so any
    difference between the curves is the plan's doing.
    """
    sizes = tuple(node_counts) if node_counts is not None \
        else bench_machine_sizes(machine)
    clean_config = dataclasses.replace(config, faults=None)
    fault_config = dataclasses.replace(config, faults=plan)
    data = FigureData(
        "Degradation", f"startup latency T0(p) on {machine} {op}, "
                       f"clean vs fault plan {plan.name!r}", "us")
    for p in sizes:
        clean = measure_startup_latency(machine, op, p, clean_config)
        data.add((op, machine, "clean"), p, clean.time_us)
        faulty = measure_startup_latency(machine, op, p, fault_config)
        data.add((op, machine, plan.name), p, faulty.time_us)
    return data


def fault_counters(world: MpiWorld) -> dict:
    """The injector's counters as a plain dict (all zero when the
    world runs without an injector)."""
    injector = world.machine.injector
    if injector is None:
        return {name: 0 for name in COUNTER_NAMES}
    return {name: getattr(injector, name) for name in COUNTER_NAMES}


@dataclass
class ChaosRun:
    """Clean-vs-faulty comparison of one collective under a plan."""

    machine: str
    op: str
    plan: FaultPlan
    nbytes: int
    num_nodes: int
    iterations: int
    seed: int
    clean_us: float
    faulty_us: float
    counters: Dict[str, int]
    #: Full metrics snapshot of the faulty run (``run_chaos`` with
    #: ``metrics=True``; empty otherwise).
    metrics_snapshot: Dict[str, dict] = field(default_factory=dict)

    @property
    def penalty_us(self) -> float:
        return self.faulty_us - self.clean_us

    @property
    def penalty_fraction(self) -> float:
        return self.penalty_us / self.clean_us if self.clean_us else 0.0

    def format(self) -> str:
        """The one-screen ``repro-bench chaos`` report."""
        lines = [
            f"chaos {self.machine} {self.op} ({self.nbytes} B, "
            f"{self.num_nodes} nodes, plan {self.plan.name!r}, "
            f"seed {self.seed})",
            f"  clean:  {format_us(self.clean_us)}",
            f"  faulty: {format_us(self.faulty_us)} "
            f"({self.penalty_us:+.1f} us, {self.penalty_fraction:+.1%})",
        ]
        shown = {name: count for name, count in self.counters.items()
                 if count}
        if shown:
            lines.append("  injector: " + ", ".join(
                f"{name}={count}" for name, count in shown.items()))
        else:
            lines.append("  injector: no faults fired")
        return "\n".join(lines)

    def document(self) -> Dict[str, object]:
        """The ``repro-bench chaos --out`` JSON dump: the injector
        counters plus the faulty run's full metrics snapshot."""
        return {
            "machine": self.machine,
            "op": self.op,
            "plan": self.plan.name,
            "nbytes": self.nbytes,
            "nodes": self.num_nodes,
            "iterations": self.iterations,
            "seed": self.seed,
            "clean_us": self.clean_us,
            "faulty_us": self.faulty_us,
            "penalty_us": self.penalty_us,
            "counters": self.counters,
            "metrics": self.metrics_snapshot,
        }


def run_chaos(machine: str, op: str, plan: FaultPlan,
              nbytes: int = 4096, num_nodes: int = 16,
              iterations: int = 1, seed: int = 0,
              metrics: bool = False) -> ChaosRun:
    """Run ``op`` once clean and once under ``plan``.

    ``metrics=True`` switches the faulty run's metrics registry on and
    keeps its full snapshot in the result (the clean run stays
    unmetered: the snapshot answers "what did the faults do?", and the
    registry is off by default on the hot path).
    """
    clean_world = MpiWorld(machine, num_nodes, seed=seed)
    clean_us = clean_world.run_collective(op, nbytes,
                                          iterations=iterations)
    fault_world = MpiWorld(machine, num_nodes, seed=seed, faults=plan,
                           metrics=metrics)
    faulty_us = fault_world.run_collective(op, nbytes,
                                           iterations=iterations)
    snapshot = fault_world.machine.metrics.snapshot() if metrics else {}
    return ChaosRun(
        machine=machine, op=op, plan=plan, nbytes=nbytes,
        num_nodes=num_nodes, iterations=iterations, seed=seed,
        clean_us=clean_us, faulty_us=faulty_us,
        counters=fault_counters(fault_world),
        metrics_snapshot=snapshot)


def chaos_report(machine: str, op: str, plan: FaultPlan,
                 nbytes: int = 4096, num_nodes: int = 16,
                 iterations: int = 1, seed: int = 0) -> str:
    """One-string rendering of :func:`run_chaos` — the elapsed times,
    the latency penalty, and every nonzero injector counter."""
    return run_chaos(machine, op, plan, nbytes=nbytes,
                     num_nodes=num_nodes, iterations=iterations,
                     seed=seed).format()
