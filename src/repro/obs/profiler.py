"""Engine profiler: where does the *simulator's own* wall-clock go?

Attached to an :class:`~repro.sim.Environment` via ``env.profiler``,
the profiler counts events scheduled and fired per event class and
attributes real (host) wall-clock time to *sites*.  A site is either a
process type whose callback consumed the time — ``rank`` for the SPMD
program bodies, ``wire`` for the transport's asynchronous wire legs,
with trailing instance numbers stripped so the report ranks hot paths,
not individual processes — or a named synchronous region the runtime
layers open inside a callback (``resource.request``,
``transport.deliver``, ``fabric.route``).

Because those regions nest inside callback frames, the profiler keeps
a frame stack and splits every site's time into **cumulative** (time
with the site anywhere on the stack) and **self** (cumulative minus
time spent in nested regions).  Self times sum to the true wall-clock
spent in callbacks; cumulative answers "how expensive is everything
under this entry point".  The per-stack aggregation is also exported
in the collapsed-stack ("folded") format that ``flamegraph.pl`` and
speedscope consume — one line per unique stack, semicolon-joined,
weighted by self-time in integer microseconds.

All rankings and exports are tie-broken by site/stack name so repeated
runs of a deterministic workload produce reports that differ only in
the (inherently noisy) wall-clock figures, never in ordering.
"""

from __future__ import annotations

import re
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["EngineProfiler"]

#: Strips instance suffixes: ``rank-3`` -> ``rank``, ``wire-0-1`` ->
#: ``wire``.
_INSTANCE_SUFFIX = re.compile(r"[-_.]?\d+")


def _process_type(name: str) -> str:
    stripped = _INSTANCE_SUFFIX.sub("", name)
    return stripped or name


class EngineProfiler:
    """Counts and times the engine's work, grouped by site.

    The engine drives the profiler through three hooks:
    :meth:`event_scheduled`, :meth:`event_fired`, and the frame pair
    :meth:`enter_callback` / :meth:`leave`.  Instrumented runtime
    layers (resources, transport, fabric) open nested frames with
    :meth:`enter` / :meth:`leave` around their synchronous hot paths.
    Frames must strictly nest; the engine and all in-tree layers
    guarantee this with ``try/finally``.
    """

    def __init__(self) -> None:
        self.events_scheduled: Dict[str, int] = {}
        self.events_fired: Dict[str, int] = {}
        #: site -> [calls, cumulative seconds, self seconds]
        self.sites: Dict[str, List[float]] = {}
        #: live frames: [site, started, child seconds]
        self._stack: List[List[Any]] = []
        #: stack tuple -> [calls, self seconds]
        self._folded: Dict[Tuple[str, ...], List[float]] = {}

    def reset(self) -> None:
        """Drop all recorded data (live frames survive a mid-run reset
        so the enclosing ``leave`` calls stay balanced)."""
        self.events_scheduled.clear()
        self.events_fired.clear()
        self.sites.clear()
        self._folded.clear()

    # -- hooks called by Environment ---------------------------------------
    def event_scheduled(self, event: Any) -> None:
        key = type(event).__name__
        self.events_scheduled[key] = self.events_scheduled.get(key, 0) + 1

    def event_fired(self, event: Any) -> None:
        key = type(event).__name__
        self.events_fired[key] = self.events_fired.get(key, 0) + 1

    @staticmethod
    def _site_of(callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            name = getattr(owner, "name", None)
            return _process_type(name) if isinstance(name, str) \
                else type(owner).__name__
        return getattr(callback, "__qualname__", repr(callback))

    def enter_callback(self, callback: Callable) -> None:
        """Open a frame for an engine callback (site derived from the
        owning process's name, instance suffix stripped)."""
        self._stack.append([self._site_of(callback), perf_counter(), 0.0])

    def enter(self, site: str) -> None:
        """Open a named frame (instrumented synchronous region)."""
        self._stack.append([site, perf_counter(), 0.0])

    def leave(self) -> None:
        """Close the innermost frame, crediting its elapsed time."""
        site, started, child_s = self._stack.pop()
        elapsed = perf_counter() - started
        self_s = elapsed - child_s
        if self_s < 0.0:  # clock granularity underflow
            self_s = 0.0
        stats = self.sites.get(site)
        if stats is None:
            self.sites[site] = [1, elapsed, self_s]
        else:
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += self_s
        if self._stack:
            self._stack[-1][2] += elapsed
            stack_key = tuple(frame[0] for frame in self._stack) + (site,)
        else:
            stack_key = (site,)
        folded = self._folded.get(stack_key)
        if folded is None:
            self._folded[stack_key] = [1, self_s]
        else:
            folded[0] += 1
            folded[1] += self_s

    # -- reporting ----------------------------------------------------------
    @property
    def total_scheduled(self) -> int:
        return sum(self.events_scheduled.values())

    @property
    def total_fired(self) -> int:
        return sum(self.events_fired.values())

    @property
    def total_callback_seconds(self) -> float:
        """True wall-clock spent in callbacks: the sum of self times
        (cumulative times would double-count nested regions)."""
        return sum(self_s for _, _, self_s in self.sites.values())

    def rankings(self) -> List[Tuple[str, int, float, float]]:
        """``(site, calls, cumulative_s, self_s)`` hot-path ranking.

        Sorted by cumulative seconds descending, then self seconds
        descending, then site name — so equal-cost sites always appear
        in the same (alphabetical) order.
        """
        return sorted(
            ((site, int(calls), cum_s, self_s)
             for site, (calls, cum_s, self_s) in self.sites.items()),
            key=lambda item: (-item[2], -item[3], item[0]))

    def hottest(self, top: int = 10) -> List[Tuple[str, int, float]]:
        """``(site, invocations, cumulative seconds)`` ranked by
        wall-clock, deterministically tie-broken by site name."""
        return [(site, calls, cum_s)
                for site, calls, cum_s, _self_s in self.rankings()[:top]]

    def folded_lines(self) -> List[str]:
        """Collapsed-stack export: ``root;child;leaf <usec>`` lines.

        The weight is the stack's total self-time in integer
        microseconds.  Lines are sorted lexicographically, so two
        profiles of the same workload fold to the same stack order.
        Feed to ``flamegraph.pl`` or import into speedscope as-is.
        """
        return [f"{';'.join(stack)} {int(round(self_s * 1e6))}"
                for stack, (_calls, self_s) in sorted(self._folded.items())]

    def format_report(self, top: int = 10) -> str:
        from .report import format_engine_report
        return format_engine_report(self, top=top)
