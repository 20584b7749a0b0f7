"""The parallel sweep engine.

:func:`run_sweep` takes a cell list, consults the content-addressed
:class:`~repro.runner.cache.ResultCache`, and evaluates only the cells
the cache cannot answer:

* ``sim`` mode shards the missing cells round-robin across a
  ``multiprocessing`` pool (one full simulation per cell);
* ``analytic`` and ``model`` modes group cells by (machine, op, p) and
  evaluate each group's whole message-size vector in one call to the
  vectorized closed-form paths (:meth:`AnalyticModel.predict_batch`,
  :meth:`TimingExpression.evaluate_grid`) — no pool needed, the numpy
  pass is already orders of magnitude faster than simulation.

Determinism: a cell's result depends only on the cell and the
measurement protocol (all simulation seeds derive from them), never on
which worker computed it or in what order, so any worker count — and
any warm/cold cache state — produces bit-identical sweep results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import (
    QUICK_CONFIG,
    AnalyticModel,
    MeasurementConfig,
    measure_collective,
    paper_expression,
)
from ..faults import FaultPlan
from ..machines import MachineSpec, get_machine_spec
from .cache import ResultCache
from .fingerprint import cell_fingerprint
from .shard import SweepCell, shard_cells

__all__ = ["SWEEP_MODES", "SweepConfig", "SweepResult", "evaluate_cell",
           "run_sweep", "validate_cell_algorithms"]

#: ``sim`` runs the discrete-event simulator; ``analytic`` the
#: no-simulation cost model; ``model`` the paper's Table 3 expressions.
SWEEP_MODES = ("sim", "analytic", "model")


@dataclass(frozen=True)
class SweepConfig:
    """How to run a sweep: mode, parallelism, protocol, caching."""

    mode: str = "sim"
    workers: int = 1
    measurement: MeasurementConfig = QUICK_CONFIG
    cache_dir: Optional[str] = None
    use_cache: bool = True
    #: Per-cell wall-clock budget (seconds).  A shard that exceeds
    #: ``cell_timeout_s * len(shard)`` is presumed stuck or its worker
    #: crashed: its cells are requeued one at a time, and a cell that
    #: fails alone is quarantined instead of sinking the sweep.
    #: ``None`` disables the watchdog (a crashed worker then hangs the
    #: sweep, as a plain pool would).
    cell_timeout_s: Optional[float] = None
    #: Attach a per-cell critical-path component breakdown (software /
    #: wire / contention / fault-recovery) to every result.  Requires a
    #: traced run per cell, so it is ``sim``-mode only and opt-in.
    breakdown: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}; "
                             f"expected one of {SWEEP_MODES}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError(f"cell_timeout_s must be > 0, got "
                             f"{self.cell_timeout_s}")
        if self.breakdown and self.mode != "sim":
            raise ValueError("breakdown requires mode='sim' (closed "
                             "forms have no trace to analyse)")

    def cell_config(self) -> Optional[MeasurementConfig]:
        """The protocol that keys cache entries (``None`` off the
        simulator path — closed forms take no protocol knobs)."""
        return self.measurement if self.mode == "sim" else None


@dataclass
class SweepResult:
    """Everything one sweep produced, keyed by cell."""

    cells: Tuple[SweepCell, ...]
    results: Dict[SweepCell, Dict[str, float]]
    fingerprints: Dict[SweepCell, str]
    cache_hits: int = 0
    evaluated: int = 0
    elapsed_s: float = 0.0
    #: Cells that failed or timed out even alone, with the reason.
    #: They have no entry in ``results`` and are never cached.
    quarantined: Dict[SweepCell, str] = field(default_factory=dict)
    #: Cells resubmitted individually after their shard failed.
    requeued: int = 0

    def summary(self) -> str:
        text = (f"{len(self.cells)} cells, {self.evaluated} evaluated, "
                f"{self.cache_hits} cache hits, {self.elapsed_s:.2f} s")
        if self.quarantined:
            text += f", {len(self.quarantined)} quarantined"
        return text


def _cell_breakdown(cell: SweepCell,
                    config: MeasurementConfig) -> Dict[str, object]:
    """One traced run's critical-path components for a sweep cell."""
    from ..obs.capture import capture_collective

    capture = capture_collective(
        cell.machine, cell.op, nbytes=cell.nbytes, num_nodes=cell.p,
        iterations=1, seed=config.seed, contention=config.contention,
        metrics=False, faults=config.faults)
    path = capture.critical_path()
    return {
        "components": {name: float(f"{value:.9g}")
                       for name, value in path.components.items()},
        "total_us": float(f"{path.total_us:.9g}"),
        "steps": len(path.steps),
    }


def evaluate_cell(cell: SweepCell, config: Optional[MeasurementConfig],
                  mode: str = "sim",
                  breakdown: bool = False) -> Dict[str, float]:
    """Simulate one cell from scratch (no cache involved).

    Only ``sim`` mode evaluates cell by cell; :func:`run_sweep` sends
    the closed-form modes through :func:`_evaluate_batched`.
    """
    if mode != "sim":
        raise ValueError(f"evaluate_cell simulates; mode {mode!r} cells "
                         f"are evaluated in batches by run_sweep")
    machine: object = cell.machine
    if cell.algorithm:
        # Per-cell override: race this algorithm instead of the
        # machine's fixed choice (the tuner's candidate sweeps).
        spec = get_machine_spec(cell.machine)
        machine = dataclasses.replace(
            spec, algorithms={**dict(spec.algorithms),
                              cell.op: cell.algorithm})
    sample = measure_collective(machine, cell.op, cell.nbytes,
                                cell.p, config or QUICK_CONFIG)
    result = {
        "time_us": sample.time_us,
        "run_times_us": list(sample.run_times_us),
        "process_min_us": sample.process_min_us,
        "process_mean_us": sample.process_mean_us,
        "process_max_us": sample.process_max_us,
    }
    if breakdown:
        result["breakdown"] = _cell_breakdown(cell, config or QUICK_CONFIG)
    return result


def _rebuild_config(config_kwargs: Dict[str, object]
                    ) -> Optional[MeasurementConfig]:
    """Rebuild a MeasurementConfig from its pickled plain-dict form.

    ``dataclasses.asdict`` flattens a nested :class:`FaultPlan` into
    dicts; restore it so workers inject the same faults the parent
    configured.
    """
    if not config_kwargs:
        return None
    kwargs = dict(config_kwargs)
    faults = kwargs.get("faults")
    if isinstance(faults, Mapping):
        kwargs["faults"] = FaultPlan.from_dict(faults)
    return MeasurementConfig(**kwargs)


def _evaluate_shard(task: Tuple[Tuple[Tuple[str, str, int, int], ...],
                                Dict[str, object], str, bool]
                    ) -> List[Tuple[Tuple[str, str, int, int],
                                    Dict[str, float]]]:
    """Worker entry point: evaluate one shard of cells.

    Takes/returns plain tuples and dicts so the payload pickles under
    any multiprocessing start method.
    """
    cell_tuples, config_kwargs, mode, breakdown = task
    config = _rebuild_config(config_kwargs)
    out = []
    for cell_tuple in cell_tuples:
        cell = SweepCell(*cell_tuple)
        out.append((cell_tuple,
                    evaluate_cell(cell, config, mode, breakdown)))
    return out


def _shard_task(shard: Sequence[SweepCell],
                config_kwargs: Dict[str, object], mode: str,
                breakdown: bool):
    return (tuple(dataclasses.astuple(cell) for cell in shard),
            config_kwargs, mode, breakdown)


def _evaluate_parallel(cells: Sequence[SweepCell],
                       config: SweepConfig
                       ) -> Tuple[Dict[SweepCell, Dict[str, float]],
                                  Dict[SweepCell, str], int]:
    """Fan simulation cells out across a worker pool.

    Returns ``(results, quarantined, requeued)``.  A shard whose worker
    raises, crashes, or blows its time budget is split and resubmitted
    one cell at a time (crash/hang detection needs
    ``config.cell_timeout_s``; exceptions are caught either way); a
    cell that fails alone lands in ``quarantined`` with the reason
    rather than aborting the sweep.
    """
    config_kwargs = dataclasses.asdict(config.measurement)
    mode = config.mode
    results: Dict[SweepCell, Dict[str, float]] = {}
    quarantined: Dict[SweepCell, str] = {}
    requeued = 0
    shards = [tuple(shard)
              for shard in shard_cells(tuple(cells), config.workers)
              if shard]
    if config.workers == 1 and config.cell_timeout_s is None:
        # In-process fast path: no pool, but the same per-cell
        # quarantine semantics.
        cell_config = _rebuild_config(config_kwargs)
        for cell in cells:
            try:
                results[cell] = evaluate_cell(cell, cell_config, mode,
                                              config.breakdown)
            except Exception as exc:
                quarantined[cell] = repr(exc)
        return results, quarantined, requeued
    with multiprocessing.Pool(processes=config.workers) as pool:
        pending: List[Tuple[SweepCell, ...]] = shards
        while pending:
            batch, pending = pending, []
            handles = [
                (shard, pool.apply_async(
                    _evaluate_shard,
                    (_shard_task(shard, config_kwargs, mode,
                                 config.breakdown),)))
                for shard in batch
            ]
            for shard, handle in handles:
                failure = None
                output = None
                try:
                    if config.cell_timeout_s is None:
                        output = handle.get()
                    else:
                        budget = config.cell_timeout_s * len(shard)
                        output = handle.get(timeout=budget)
                except multiprocessing.TimeoutError:
                    failure = (f"timed out after "
                               f"{config.cell_timeout_s * len(shard):g} s "
                               f"(worker stuck or crashed)")
                except Exception as exc:
                    failure = repr(exc)
                if output is not None:
                    for cell_tuple, result in output:
                        results[SweepCell(*cell_tuple)] = result
                elif len(shard) > 1:
                    # Isolate the poison cell: retry one at a time.
                    requeued += len(shard)
                    pending.extend((cell,) for cell in shard)
                else:
                    quarantined[shard[0]] = failure or "unknown failure"
    return results, quarantined, requeued


def _evaluate_batched(cells: Sequence[SweepCell],
                      specs: Dict[str, MachineSpec],
                      mode: str
                      ) -> Tuple[Dict[SweepCell, Dict[str, float]],
                                 Dict[SweepCell, str]]:
    """Closed-form modes: vectorize each (machine, op, p) row's sizes.

    Returns ``(results, quarantined)`` — a row whose closed form raises
    quarantines its cells with the reason instead of sinking the sweep,
    matching the simulation path's per-cell semantics.
    """
    rows: Dict[Tuple[str, str, int], List[int]] = {}
    for cell in cells:
        rows.setdefault((cell.machine, cell.op, cell.p),
                        []).append(cell.nbytes)
    results: Dict[SweepCell, Dict[str, float]] = {}
    quarantined: Dict[SweepCell, str] = {}
    for (machine, op, p), sizes in sorted(rows.items()):
        sizes = sorted(set(sizes))
        try:
            if mode == "analytic":
                times = AnalyticModel(specs[machine]).predict_batch(
                    op, sizes, p)
            else:
                times = paper_expression(machine, op).evaluate_grid(
                    sizes, (p,))[0]
        except Exception as exc:
            for nbytes in sizes:
                quarantined[SweepCell(machine, op, nbytes, p)] = repr(exc)
            continue
        for nbytes, time_us in zip(sizes, times):
            results[SweepCell(machine, op, nbytes, p)] = \
                {"time_us": float(time_us)}
    return results, quarantined


def validate_cell_algorithms(cells: Sequence[SweepCell], mode: str = "sim",
                             breakdown: bool = False) -> None:
    """Reject bad per-cell algorithm overrides before any work starts.

    An unknown name (a hand-edited decision table, a stale file) must
    surface as a clean :class:`ValueError` naming the known algorithms
    — not as a raw ``KeyError`` traceback from ``get_algorithm`` deep
    inside a worker mid-sweep.  Overrides also require ``sim`` mode
    (the closed forms are keyed to the machines' fixed algorithms) and
    are incompatible with the breakdown capture path.
    """
    overridden = sorted({cell.algorithm for cell in cells
                         if cell.algorithm})
    if not overridden:
        return
    if mode != "sim":
        raise ValueError(
            f"per-cell algorithm overrides require mode='sim'; mode "
            f"{mode!r} uses closed forms keyed to the machines' fixed "
            f"algorithms")
    if breakdown:
        raise ValueError("per-cell algorithm overrides are incompatible "
                         "with breakdown=True (the capture path runs "
                         "the machine's fixed algorithm)")
    from ..mpi.collectives import algorithm_names

    known = sorted(algorithm_names())
    unknown = sorted(set(overridden) - set(known))
    if unknown:
        raise ValueError(
            f"unknown collective algorithm(s) {', '.join(unknown)}; "
            f"known algorithms: {', '.join(known)}")


def run_sweep(cells: Sequence[SweepCell],
              config: Optional[SweepConfig] = None,
              cache: Optional[ResultCache] = None) -> SweepResult:
    """Run a sweep over ``cells``, reusing every cached cell.

    Results are returned (and cached) per cell; the cell list is
    deduplicated and sorted first, so the output is independent of
    input order, worker count, and cache temperature.
    """
    config = config or SweepConfig()
    ordered = tuple(sorted(set(cells)))
    validate_cell_algorithms(ordered, config.mode, config.breakdown)
    if cache is None:
        root = config.cache_dir
        cache = ResultCache(root) if root else ResultCache()
        cache.enabled = config.use_cache
    specs = {name: get_machine_spec(name)
             for name in sorted({cell.machine for cell in ordered})}
    cell_config = config.cell_config()
    fingerprints = {
        cell: cell_fingerprint(specs[cell.machine], cell.op,
                               cell.nbytes, cell.p, cell_config,
                               config.mode, config.breakdown,
                               algorithm=cell.algorithm or None)
        for cell in ordered
    }

    started = time.perf_counter()
    results: Dict[SweepCell, Dict[str, float]] = {}
    missing: List[SweepCell] = []
    for cell in ordered:
        payload = cache.get(fingerprints[cell])
        if payload is not None and "result" in payload:
            results[cell] = payload["result"]
        else:
            missing.append(cell)

    quarantined: Dict[SweepCell, str] = {}
    requeued = 0
    if missing:
        if config.mode == "sim":
            computed, quarantined, requeued = \
                _evaluate_parallel(missing, config)
        else:
            computed, quarantined = _evaluate_batched(missing, specs,
                                                      config.mode)
        for cell in missing:
            if cell in quarantined:
                continue
            results[cell] = computed[cell]
            cache.put(fingerprints[cell], {
                "cell": dataclasses.asdict(cell),
                "mode": config.mode,
                "result": computed[cell],
            })

    return SweepResult(
        cells=ordered,
        results=results,
        fingerprints=fingerprints,
        cache_hits=len(ordered) - len(missing),
        evaluated=len(missing) - len(quarantined),
        elapsed_s=time.perf_counter() - started,
        quarantined=quarantined,
        requeued=requeued,
    )
