"""The traced run's instrumentation, installed from the benchmark side.

:class:`LayerTracer` times calls into each layer's public functions by
wrapping the names the sweep and tune pipelines call them through, and
attaches the simulator's own observers — :class:`WorkMeter` and
:class:`EngineProfiler` — through their public hooks ``env.work`` and
``env.profiler``.  None of this changes which simulator code runs:

* the wrappers call the original function with the original
  arguments and only read the clock around it;
* the hooks are the documented off-by-default observers, which the
  engine checks but never branches on for simulation decisions;
* every world is built exactly as the untraced run builds it.  In
  particular ``MpiWorld(trace=True)`` or ``metrics=True`` would switch
  the transport's short-circuit path off, so the tracer raises
  :class:`TracingChangesCodePath` as soon as such a world is built.

Install with ``with LayerTracer() as tracer: ...``; leaving the block
restores every wrapped name.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class TracingChangesCodePath(RuntimeError):
    """A traced run asked for a world that runs different code."""


class LayerTracer:
    """Span totals, per-cell costs and engine observers for one run."""

    def __init__(self) -> None:
        from repro.obs.perf import WorkMeter
        from repro.obs.profiler import EngineProfiler

        self.meter = WorkMeter()
        self.profiler = EngineProfiler()
        #: span name -> summed seconds
        self.spans: Dict[str, float] = {}
        self.worlds_built = 0
        #: (cell key, wall seconds, events fired) per evaluate_cell call
        self.cell_costs: List[Tuple[str, float, int]] = []
        #: fingerprint -> cache outcome of each lookup ("hit"/"miss")
        self.lookups: List[Tuple[str, str]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------
    def add(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def timed(self, name: str, func: Callable) -> Callable:
        """``func`` with each call's duration added to span ``name``."""
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - started)
        wrapper.__wrapped__ = func
        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        import repro.core.measurement as measurement
        import repro.runner.pool as pool
        import repro.tuner.sweep as tune_sweep

        tracer = self
        base_world = measurement.MpiWorld

        class TracedWorld(base_world):
            """The same world, built and run under the tracer's clock
            with the observers attached before the first event."""

            def __init__(self, *args: Any, **kwargs: Any) -> None:
                started = time.perf_counter()
                super().__init__(*args, **kwargs)
                tracer.add("build", time.perf_counter() - started)
                if self.tracer.enabled or self.metrics.enabled:
                    raise TracingChangesCodePath(
                        "a traced benchmark run must not build MpiWorld "
                        "with trace=True or metrics=True: either one "
                        "turns the transport's short-circuit path off")
                tracer.worlds_built += 1
                self.env.work = tracer.meter
                self.env.profiler = tracer.profiler

            def run(self, *args: Any, **kwargs: Any) -> Any:
                started = time.perf_counter()
                try:
                    return super().run(*args, **kwargs)
                finally:
                    tracer.add("world.run", time.perf_counter() - started)

        evaluate_cell = pool.evaluate_cell

        def timed_evaluate_cell(cell: Any, *args: Any, **kwargs: Any):
            fired = tracer.meter.events_fired
            started = time.perf_counter()
            try:
                return evaluate_cell(cell, *args, **kwargs)
            finally:
                tracer.cell_costs.append(
                    (cell.key(), time.perf_counter() - started,
                     tracer.meter.events_fired - fired))

        self._patch(measurement, "MpiWorld", TracedWorld)
        self._patch(pool, "evaluate_cell", timed_evaluate_cell)
        self._patch(pool, "measure_collective",
                    self.timed("measure", pool.measure_collective))
        self._patch(pool, "cell_fingerprint",
                    self.timed("fingerprint", pool.cell_fingerprint))
        self._patch(tune_sweep, "run_sweep",
                    self.timed("sweep", tune_sweep.run_sweep))
        self._patch(tune_sweep, "fit_decision_table",
                    self.timed("fit", tune_sweep.fit_decision_table))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def watch_cache(self, cache: Any) -> None:
        """Time ``cache``'s lookups and writes, recording each lookup's
        outcome."""
        get, put = cache.get, cache.put

        def timed_get(key: str) -> Optional[Dict[str, Any]]:
            started = time.perf_counter()
            try:
                payload = get(key)
            finally:
                self.add("cache.get", time.perf_counter() - started)
            self.lookups.append((key, "miss" if payload is None
                                 else "hit"))
            return payload

        cache.get = timed_get
        cache.put = self.timed("cache.put", put)
