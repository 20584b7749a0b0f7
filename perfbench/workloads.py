"""The benchmark's workloads: which cells each one runs, and how.

Every workload runs the simulator (``sim`` mode) with the paper's quick
protocol (``QUICK_CONFIG``: k=3, one warm-up iteration, two runs) and
``workers=1``, through the public entry points
:func:`repro.runner.run_sweep` and :func:`repro.tuner.run_tune`.  The
``--seed`` becomes ``MeasurementConfig.seed``; the program only ever
receives the cells generated here.

Grids are sized so one cold pass takes a few seconds on a 2-core host,
which lets a run repeat it several times and report medians.  The
``smoke`` size is a much smaller grid of the same shape, used by the
benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from accounting import median, tuned_gain_geomean

TREE_OPS = ("broadcast", "scatter", "gather", "scan", "reduce")
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and why it is in the benchmark."""

    name: str
    why: str


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("fig3-trees",
             "Fig. 3 tree collectives and barrier at 16 B and 64 KB, "
             "p=2..32: many small worlds on the contention-free "
             "short-circuit path"),
    Workload("alltoall-contended",
             "64 KB alltoall on Paragon and T3D at p=16, 32: the "
             "contended O(p) fabric path, resource request/grant cycles"),
    Workload("lossy-trees",
             "tree collectives under the lossy fault preset: every "
             "transfer on the full wire path, with retransmissions"),
    Workload("tune-race",
             "run_tune candidate race and crossover fit: the only "
             "workload through repro.tuner and the zoo algorithms"),
)}


def _round9(value: float) -> float:
    return float(f"{float(value):.9g}")


def _record(result: Dict[str, Any]) -> Tuple[float, ...]:
    values = [result["time_us"], *result.get("run_times_us", ()),
              result.get("process_min_us", 0.0),
              result.get("process_mean_us", 0.0),
              result.get("process_max_us", 0.0)]
    return tuple(_round9(value) for value in values)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digest(records: Dict[str, Optional[Tuple[float, ...]]]) -> str:
    """sha256 over ``key value value ...`` lines, keys sorted."""
    lines = []
    for key in sorted(records):
        values = records[key]
        text = "quarantined" if values is None else \
            " ".join(f"{value:.9g}" for value in values)
        lines.append(f"{key} {text}\n")
    return _sha256("".join(lines))


class Plan:
    """A workload made concrete: its cells, protocol and entry point.

    Building a plan imports :mod:`repro`, resolves the machine specs
    and enumerates the grid — the set-up the benchmark times as
    ``setup_s``.
    """

    def __init__(self, name: str, seed: int, size: str = "full") -> None:
        if name not in WORKLOADS:
            raise KeyError(f"unknown workload {name!r}; known: "
                           f"{', '.join(sorted(WORKLOADS))}")
        if size not in SIZES:
            raise KeyError(f"unknown size {size!r}; known: {SIZES}")
        from repro.core import QUICK_CONFIG
        from repro.faults import fault_preset
        from repro.machines import get_machine_spec
        from repro.runner import SweepGrid
        from repro.tuner import TuneGrid
        from repro.tuner.sweep import tune_cells

        smoke = size == "smoke"
        self.name = name
        self.config = dataclasses.replace(QUICK_CONFIG, seed=seed)
        self.tune_grid = None
        if name == "fig3-trees":
            grid = SweepGrid(name=name, ops=TREE_OPS,
                             message_sizes=(16, 65536),
                             machine_sizes=(2, 4) if smoke
                             else (2, 4, 8, 16, 32),
                             include_barrier=True)
        elif name == "alltoall-contended":
            grid = SweepGrid(name=name, machines=("paragon", "t3d"),
                             ops=("alltoall",), message_sizes=(65536,),
                             machine_sizes=(8,) if smoke else (16, 32))
        elif name == "lossy-trees":
            self.config = dataclasses.replace(
                self.config, faults=fault_preset("lossy"))
            grid = SweepGrid(name=name, ops=TREE_OPS,
                             message_sizes=(16, 65536),
                             machine_sizes=(4,) if smoke else (8, 32))
        else:
            grid = None
            self.tune_grid = TuneGrid(
                name=name,
                ops=("allreduce", "broadcast") if smoke else
                ("allgather", "allreduce", "broadcast", "reduce"),
                message_sizes=(64,) if smoke else (64, 65536),
                machine_sizes=(4,) if smoke else (4, 16))
        self.machines: Tuple[str, ...] = ("paragon", "sp2", "t3d")
        if grid is not None:
            self.machines = tuple(sorted(grid.machines))
            self.cells = grid.cells()
        else:
            self.cells = tune_cells(self.machines, self.tune_grid)
        self.specs = {machine: get_machine_spec(machine)
                      for machine in self.machines}

    @property
    def is_tune(self) -> bool:
        return self.tune_grid is not None

    def sweep_config(self, cache_root: str) -> Any:
        from repro.runner import SweepConfig

        return SweepConfig(mode="sim", workers=1,
                           measurement=self.config, cache_dir=cache_root)

    def call(self, cache: Any) -> Any:
        """The timed region: one ``run_sweep`` or ``run_tune`` call."""
        if self.is_tune:
            from repro.tuner import run_tune

            return run_tune(self.machines, self.tune_grid, self.config,
                            workers=1, cache_dir=str(cache.root),
                            cache=cache)
        from repro.runner import run_sweep

        return run_sweep(self.cells, self.sweep_config(str(cache.root)),
                         cache=cache)

    def digest(self, output: Any) -> str:
        """sha256 of a call's canonical output."""
        if self.is_tune:
            from repro.tuner import dumps_tuning

            return _sha256(dumps_tuning(output.artifact()))
        return records_digest(self.records(output))

    def records(self, output: Any) -> Dict[str, Optional[Tuple[float, ...]]]:
        """Per-cell results of a sweep output."""
        return {cell.key(): None if cell in output.quarantined
                else _record(output.results[cell])
                for cell in output.cells}

    def read_back(self, cache_root: str) -> Any:
        """A sweep over the plan's cells answered from ``cache_root``.

        A tune's output holds only the fitted table, so its per-cell
        results are read back from the cache it filled (every cell a
        hit; a cell the tune quarantined stays missing and would be
        simulated again, and is then compared like any other).  Run it
        outside the timed region and outside any tracer.
        """
        from repro.runner import ResultCache, run_sweep

        return run_sweep(self.cells, self.sweep_config(cache_root),
                         cache=ResultCache(cache_root))

    def audit(self, output: Any, cache_root: str) -> Tuple[float, float]:
        """``(within_share, median_abs_err)`` against Table 3 over the
        plan's cells that run the machine's own algorithm.

        Table 3 models fault-free machines, so a plan with a fault
        preset is audited on a fault-free reference sweep of the same
        cells (uncached, outside every timed region) rather than on
        its own lossy times, whose error depends on which messages the
        seed happens to drop."""
        from repro.obs.drift import audit_artifact
        from repro.runner import run_sweep

        if self.config.faults is not None:
            reference = dataclasses.replace(
                self.sweep_config(cache_root), use_cache=False,
                measurement=dataclasses.replace(self.config, faults=None))
            output = run_sweep(self.cells, reference)
        cells = []
        for cell in output.cells:
            if cell in output.quarantined:
                continue
            incumbent = self.specs[cell.machine].algorithms.get(cell.op)
            if cell.algorithm and cell.algorithm != incumbent:
                continue
            cells.append({"machine": cell.machine, "op": cell.op,
                          "nbytes": cell.nbytes, "p": cell.p,
                          "result": output.results[cell]})
        report = audit_artifact({"cells": cells})
        if not report.cells:
            raise ValueError(f"{self.name}: no cell has a Table 3 model")
        errors = sorted(abs(cell.rel_error) for cell in report.cells)
        within = sum(1 for cell in report.cells if cell.within)
        return within / len(report.cells), median(errors)

    def tuned_gain(self, output: Any) -> float:
        """Geometric-mean default ÷ chosen time over the grid points.

        A sweep runs every machine's own algorithm, so each point's
        chosen time is its default time and the gain is 1.0."""
        if not self.is_tune:
            return 1.0
        points = {(cell.machine, cell.op, cell.nbytes, cell.p)
                  for cell in self.cells
                  if self.specs[cell.machine].algorithms.get(cell.op)}
        return tuned_gain_geomean(
            (float(flip["speedup"]) for flip in output.flips),
            len(points))

