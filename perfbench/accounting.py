"""The benchmark's own arithmetic, kept free of simulator imports.

Everything here is a pure function of plain numbers and dicts, so the
tests in ``perfbench/tests`` can pin it on synthetic inputs:

* :func:`self_time` — a span minus the part of it its child spans
  cover;
* :func:`share` — a ratio that reads 0.0 when nothing was attempted;
* :func:`tuned_gain_geomean` — default ÷ chosen time over a tune grid;
* :func:`failed_cells` — which cells of a run count as failed;
* :func:`layer_split` — the traced run's per-layer self times and
  counts, built from span totals, profiler sites and work counters.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Profiler site -> the layer whose code runs at that site.  Process
#: sites are named after the process (instance number stripped);
#: plain callback sites after the class owning the bound method.  A
#: site missing here is counted as unattributed, so a new process name
#: shows up in ``trace.unattributed_s`` rather than vanishing.
SITE_LAYERS: Dict[str, str] = {
    # Condition events' bookkeeping callbacks (sim/engine.py).
    "AllOf": "sim.engine",
    "AnyOf": "sim.engine",
    "Condition": "sim.engine",
    # Synchronous resource regions and booking-expiry wakeups.
    "resource.request": "sim.resources",
    "resource.release": "sim.resources",
    "Resource": "sim.resources",
    # Route booking inside the fabric's transfer path.
    "fabric.route": "network.fabric",
    # Wire pipeline: full path (wire + its carry/transmit/receive
    # legs), the contended-route path, and the short-circuit path's
    # landing/deliver callbacks (bound methods of Transport).
    "wire": "mpi.transport",
    "carry": "mpi.transport",
    "transmit": "mpi.transport",
    "receive": "mpi.transport",
    "_wire_contended": "mpi.transport",
    "Transport": "mpi.transport",
    "transport.deliver": "mpi.transport",
    # SPMD rank bodies: collective algorithms, node software costs,
    # the synchronous send path; plus the node's hardware barrier.
    "rank": "mpi.rank",
    "hw-barrier": "mpi.rank",
}

#: Layers that own profiler sites, in report order.
SITE_LAYER_ORDER = ("sim.engine", "sim.resources", "network.fabric",
                    "mpi.transport", "mpi.rank")


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def self_time(span_s: float, child_spans_s: Iterable[float]) -> float:
    """A span's duration minus the time its direct children cover.

    Children must be direct (a grandchild is already inside its
    parent), so the result is the span's exclusive time.  Timer
    granularity can push the difference a hair below zero; that is
    clamped rather than reported as negative work.
    """
    return max(0.0, span_s - sum(child_spans_s))


def share(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the denominator is 0
    (no attempts means no useful outcomes, not a division error)."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def tuned_gain_geomean(speedups: Iterable[float], points: int) -> float:
    """Geometric mean of default ÷ chosen time over ``points`` grid
    points, where ``speedups`` lists the points the tuner flipped and
    every other point counts 1.0.  A grid with no flips gives 1.0."""
    speedups = list(speedups)
    if points < len(speedups):
        raise ValueError(f"{len(speedups)} flips on {points} points")
    if points == 0:
        return 1.0
    for value in speedups:
        if not value > 0:
            raise ValueError(f"speedup must be > 0, got {value!r}")
    return math.exp(sum(math.log(value) for value in speedups) / points)


def failed_cells(cells: Iterable[str],
                 passes: Sequence[Mapping[str, Optional[Sequence[float]]]]
                 ) -> List[str]:
    """Cells of a run that count as failed, sorted.

    ``passes`` holds one mapping per pass over the same cells (cold,
    warm, traced, ...), from cell key to that pass's result — a tuple
    of times whose first entry is the cell's ``time_us`` — or ``None``
    (or no entry) when the pass quarantined the cell.  A cell fails if
    any pass lacks it, its time is not finite or not positive, or two
    passes disagree on any of its values.
    """
    failed = []
    for key in cells:
        results = [results_of.get(key) for results_of in passes]
        first = results[0] if results else None
        if first is None or any(result is None for result in results):
            failed.append(key)
        elif not (math.isfinite(first[0]) and first[0] > 0):
            failed.append(key)
        elif any(list(result) != list(first) for result in results[1:]):
            failed.append(key)
    return sorted(failed)


def layer_split(wall_s: float,
                spans: Mapping[str, float],
                sites_self_s: Mapping[str, float],
                work: Mapping[str, int]) -> Dict[str, float]:
    """The traced run's per-layer metrics.

    ``spans`` maps each benchmark-side span name to its summed
    duration: ``tune`` (``run_tune``), ``sweep`` (``run_sweep``),
    ``fit`` (``fit_decision_table``), ``cache.get``, ``cache.put``,
    ``fingerprint`` (``cell_fingerprint``), ``measure``
    (``measure_collective``), ``build`` (``MpiWorld.__init__``) and
    ``world.run`` (``MpiWorld.run``); a span that never ran may be
    absent.  ``sites_self_s`` is the engine profiler's self time per
    site and ``work`` the work meter's counters.

    The spans nest as tune > sweep > {fit is beside sweep} and
    sweep > {cache, fingerprint, measure > {build, world.run}}, and the
    profiler's callback frames all sit inside ``world.run``, so every
    layer's self time is its span minus the spans directly inside it.
    ``trace.unattributed_s`` is what is left of ``wall_s``: sites no
    layer owns, plus time outside the outermost span.
    """
    span = {name: float(spans.get(name, 0.0)) for name in (
        "tune", "sweep", "fit", "cache.get", "cache.put", "fingerprint",
        "measure", "build", "world.run")}
    layer_sites = {layer: 0.0 for layer in SITE_LAYER_ORDER}
    for site, seconds in sites_self_s.items():
        layer = SITE_LAYERS.get(site)
        if layer is not None:
            layer_sites[layer] += seconds
    callbacks_s = sum(sites_self_s.values())
    tuner_self = self_time(span["tune"], (span["sweep"], span["fit"])) \
        if span["tune"] else 0.0
    out = {
        "sim.engine.self_s": self_time(span["world.run"], (callbacks_s,))
        + layer_sites["sim.engine"],
        "sim.resources.self_s": layer_sites["sim.resources"],
        "network.fabric.self_s": layer_sites["network.fabric"],
        "mpi.transport.self_s": layer_sites["mpi.transport"],
        "mpi.rank.self_s": layer_sites["mpi.rank"],
        "machines.build_s": span["build"],
        "core.measurement.self_s": self_time(
            span["measure"], (span["build"], span["world.run"])),
        "runner.self_s": self_time(span["sweep"], (
            span["cache.get"], span["cache.put"], span["fingerprint"],
            span["measure"])),
        "runner.cache.get_s": span["cache.get"],
        "runner.cache.put_s": span["cache.put"],
        "runner.fingerprint_s": span["fingerprint"],
    }
    attributed = sum(out.values()) + tuner_self + span["fit"]
    out.update({
        "tuner.fit_s": span["fit"],
        "trace.unattributed_s": wall_s - attributed,
        "sim.engine.events_fired": float(work.get("events_fired", 0)),
        "sim.engine.heap_peak": float(work.get("heap_peak", 0)),
        "sim.resources.requests": float(work.get("resource_requests", 0)),
        "sim.resources.occupancies": float(
            work.get("resource_occupancies", 0)),
        "network.fabric.link_acquisitions": float(
            work.get("link_acquisitions", 0)),
        "network.fabric.stall_share": share(
            work.get("transfers_stalled", 0),
            work.get("transfers_booked", 0)),
        "network.fabric.shortcircuit_share": share(
            work.get("transfers_shortcircuited", 0),
            work.get("transfers_booked", 0)),
        "mpi.transport.messages_sent": float(work.get("messages_sent", 0)),
        "mpi.transport.retransmissions_per_msg": share(
            work.get("retransmissions", 0), work.get("messages_sent", 0)),
    })
    return out
