"""One-call capture of a fully observed collective run.

``capture_collective`` builds a world with tracing/metrics/profiling
switched on, runs one collective, and hands back everything the
exporters and reports consume.  This is what the ``repro-bench trace``
and ``repro-bench profile`` subcommands (and the examples) drive.

Imports of the runtime layers happen lazily so ``repro.obs`` stays
importable from the lower layers it instruments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..canonical import dumps_canonical as dumps_replay_frames
from ..canonical import load_canonical, write_canonical
from ..sim import Tracer
from .metrics import MetricsRegistry
from .perf import WorkMeter
from .profiler import EngineProfiler

__all__ = ["REPLAY_SCHEMA", "CollectiveCapture", "capture_collective",
           "dumps_replay_frames", "write_replay_frames",
           "load_replay_frames"]

PathLike = Union[str, Path]

#: Schema tag of the serialized replay-frame document.
REPLAY_SCHEMA = "repro-replay/1"

#: Span categories serialized into replay frames, and their painting
#: order in the dashboard (recovery categories overlay plain traffic).
REPLAY_CATEGORIES = ("collective", "phase", "message", "link",
                     "retransmit", "backoff", "reroute")


def _round9(value: float) -> float:
    """9-significant-digit rounding (the repo's golden convention)."""
    return float(f"{value:.9g}")


def _link_points(name: str, topology) -> Optional[List[List[float]]]:
    """Endpoint positions of one link span, from its ``link <id>`` name.

    Mesh and torus link ids carry the endpoint grid coordinates; those
    are mapped through the topology's visual layout so the dashboard
    can draw the individual hop.  Indirect-fabric ids (``("ms", stage,
    port)``) have no node geometry — the replay falls back to the
    message's src->dst line.
    """
    if not name.startswith("link "):
        return None
    try:
        link_id = ast.literal_eval(name[5:])
    except (SyntaxError, ValueError):
        return None
    if not isinstance(link_id, tuple):
        return None
    if link_id and link_id[0] == "mesh" and len(link_id) == 3:
        coords = link_id[1:]
    elif link_id and link_id[0] == "torus" and len(link_id) == 4:
        coords = link_id[2:]
    else:
        return None
    layout = topology.layout_positions()
    points = []
    for coord in coords:
        try:
            node = topology.node_at(*coord)
        except (TypeError, ValueError):
            return None
        x, y = layout[node]
        points.append([x, y])
    return points


@dataclass
class CollectiveCapture:
    """Everything observed about one collective run."""

    machine: str
    op: str
    nbytes: int
    num_nodes: int
    iterations: int
    elapsed_us: float
    world: object
    tracer: Tracer
    metrics: MetricsRegistry
    profiler: Optional[EngineProfiler]
    work: Optional[WorkMeter] = None
    seed: int = 0
    #: Name of the fault-plan preset the capture ran under, if any.
    faults_name: Optional[str] = None

    def critical_path(self):
        """Causal critical path of the captured run (the longest
        collective span when ``iterations > 1``)."""
        from .critpath import critical_path

        return critical_path(self.tracer)

    def summary(self) -> str:
        """One-paragraph text summary of what was captured."""
        spans = self.tracer.spans()
        by_category: dict = {}
        for span in spans:
            by_category[span.category] = \
                by_category.get(span.category, 0) + 1
        parts = [f"{self.op} on {self.machine}, "
                 f"p={self.num_nodes}, m={self.nbytes} B, "
                 f"{self.iterations} iteration(s): "
                 f"{self.elapsed_us:.1f} us simulated"]
        if spans or self.tracer.records():
            categories = ", ".join(
                f"{count} {category}"
                for category, count in sorted(by_category.items()))
            parts.append(f"spans: {len(spans)} ({categories}); "
                         f"flat records: {len(self.tracer.records())}; "
                         f"dropped: {self.tracer.dropped}")
        return "\n".join(parts)

    def to_replay_frames(self) -> Dict[str, Any]:
        """Serialize the capture as a deterministic replay document.

        The document (schema :data:`REPLAY_SCHEMA`) carries everything
        the dashboard's hop-by-hop replay needs and nothing volatile:
        the topology's visual layout, every traced span flattened to a
        frame (collective/phase envelopes, messages, per-hop link
        occupancies with endpoint geometry where the fabric has any,
        and the ``retransmit``/``backoff``/``reroute`` recovery spans),
        and the causal critical path for the overlay.  All times are
        simulated microseconds rounded to 9 significant digits, so the
        same seeded capture serializes byte-identically across runs
        and processes.
        """
        topology = self.world.machine.topology
        layout = topology.layout_positions()
        frames: List[Dict[str, Any]] = []
        for span in self.tracer.spans():
            if span.category not in REPLAY_CATEGORIES:
                continue
            end = span.start if span.end is None else span.end
            frame: Dict[str, Any] = {
                "id": span.id,
                "parent": span.parent,
                "category": span.category,
                "name": span.name,
                "node": span.node,
                "start_us": _round9(span.start),
                "end_us": _round9(end),
            }
            dst = span.detail.get("dst")
            if dst is not None:
                frame["dst"] = int(dst)
            nbytes = span.detail.get("nbytes")
            if nbytes is not None:
                frame["nbytes"] = int(nbytes)
            if span.category == "link":
                points = _link_points(span.name, topology)
                if points is not None:
                    frame["points"] = points
            frames.append(frame)
        frames.sort(key=lambda f: (f["start_us"], f["id"]))
        critical: Optional[Dict[str, Any]] = None
        try:
            path = self.critical_path()
        except ValueError:
            path = None
        if path is not None:
            critical = {
                "span_ids": [step.span_id for step in path.steps],
                "start_us": _round9(path.start_us),
                "end_us": _round9(path.end_us),
                "total_us": _round9(path.total_us),
                "components": {name: _round9(value) for name, value
                               in sorted(path.components.items())},
            }
        document: Dict[str, Any] = {
            "schema": REPLAY_SCHEMA,
            "machine": self.machine,
            "op": self.op,
            "nbytes": self.nbytes,
            "num_nodes": self.num_nodes,
            "iterations": self.iterations,
            "seed": self.seed,
            "elapsed_us": _round9(self.elapsed_us),
            "topology": {
                "kind": self.world.spec.network.kind,
                "positions": [list(layout[node])
                              for node in range(self.num_nodes)],
            },
            "frames": frames,
            "critical_path": critical,
            "dropped": self.tracer.dropped,
        }
        if self.faults_name:
            document["faults"] = self.faults_name
        return document


def capture_collective(machine: str, op: str, nbytes: int = 1024,
                       num_nodes: int = 16, root: int = 0,
                       iterations: int = 1, seed: int = 0,
                       contention: bool = True, trace: bool = True,
                       metrics: bool = True, profile: bool = False,
                       work: bool = False,
                       max_records: Optional[int] = None,
                       max_spans: Optional[int] = None,
                       faults=None) -> CollectiveCapture:
    """Run ``iterations`` of one collective with full observability.

    ``faults`` (a :class:`~repro.faults.FaultPlan`) runs the capture
    under fault injection, so the trace carries the
    ``retransmit``/``backoff``/``reroute`` recovery spans.  ``work``
    attaches a :class:`WorkMeter`, so the capture also carries the
    deterministic work counters of :mod:`repro.obs.perf`.
    """
    from ..mpi import MpiWorld

    world = MpiWorld(machine, num_nodes, seed=seed,
                     contention=contention, trace=trace,
                     metrics=metrics, faults=faults)
    if max_records is not None or max_spans is not None:
        world.tracer.configure_limits(max_records=max_records,
                                      max_spans=max_spans)
    profiler = None
    if profile:
        profiler = EngineProfiler()
        world.env.profiler = profiler
    meter = None
    if work:
        meter = WorkMeter()
        world.env.work = meter
    elapsed = world.run_collective(op, nbytes, root=root,
                                   iterations=iterations)
    return CollectiveCapture(
        machine=world.spec.name, op=op, nbytes=nbytes,
        num_nodes=num_nodes, iterations=iterations, elapsed_us=elapsed,
        world=world, tracer=world.tracer, metrics=world.machine.metrics,
        profiler=profiler, work=meter, seed=seed,
        faults_name=getattr(faults, "name", None))


def write_replay_frames(document: Dict[str, Any],
                        path: PathLike) -> Path:
    """Write a replay document canonically; returns the path."""
    return write_canonical(document, path)


def load_replay_frames(path: PathLike) -> Dict[str, Any]:
    """Load and schema-check a replay document."""
    return load_canonical(path, REPLAY_SCHEMA, "a replay document")
