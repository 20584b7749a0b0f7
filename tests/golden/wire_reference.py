"""The wire reference: frozen output of collectives, checked case by case.

``wire_reference.json`` holds, for every case of a fixed matrix, what
one collective run puts out:

* the elapsed simulated time, as ``repr`` of the float (or the
  :class:`~repro.mpi.DeliveryError` and the time it was raised at);
* the model's work counters (messages, transfers, link acquisitions,
  retransmissions) — not the event-queue and resource-protocol
  counters, which count how the simulator got there, not what it
  simulated;
* all eight fault-injector counters (``None`` without a fault plan);
* one sha256 over the traffic (per-link bytes, busy time, wait time and
  contended transfers; per-NIC message counts), the metrics snapshot,
  and the trace (spans and flat records) in canonical form.

The matrix is every machine x 8 collectives x 4 sizes x
p in {2, 5, 16, 32} x 2 seeds (barrier at size 0 only: 696 cases), plus
every fault preset, traced, metered, and traced-and-metered runs on a
subset of it.  The file was generated by the process-per-hop wire
before it was deleted, so it pins the one remaining wire to that
path's exact output.

Check every case::

    PYTHONPATH=src python -m tests.golden.wire_reference --check

and rewrite the file from the current code (only for an intended
change of simulated output)::

    PYTHONPATH=src python -m tests.golden.wire_reference --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.faults import fault_preset
from repro.mpi import DeliveryError, MpiWorld
from repro.obs.perf import WorkMeter

REFERENCE_PATH = Path(__file__).parent / "wire_reference.json"

MACHINES = ("sp2", "t3d", "paragon")
OPS = ("barrier", "broadcast", "gather", "scatter", "reduce", "alltoall",
       "allreduce", "allgather")
SIZES = (0, 64, 4096, 65536)
NODES = (2, 5, 16, 32)
SEEDS = (0, 7)

#: Every fault preset except the empty one.
FAULT_PRESETS = ("single-link-outage", "flaky-link", "lossy", "slow-node",
                 "midflight-outage", "chaos")

#: How a run is observed: nothing, the tracer, the metrics registry, or
#: both.
OBSERVERS = {
    "plain": {},
    "trace": {"trace": True},
    "metrics": {"metrics": True},
    "both": {"trace": True, "metrics": True},
}

#: The model's work counters: what was simulated, however it was.
MODEL_COUNTERS = ("messages_sent", "messages_delivered", "transfers_booked",
                  "transfers_completed", "transfers_stalled",
                  "transfers_aborted", "transfers_rerouted",
                  "link_acquisitions", "retransmissions")

INJECTOR_COUNTERS = ("messages_lost", "messages_corrupted",
                     "transfers_aborted", "reroutes", "unroutable",
                     "retransmits", "spurious_retransmits",
                     "nic_stall_total_us")

#: ``(machine, op, nbytes, p, seed, faults, observer)``.
Case = Tuple[str, str, int, int, int, str, str]

#: A link outage that starts while a large broadcast is in flight
#: (the ``chaos``/``critpath`` command point).
MIDFLIGHT_POINT = ("t3d", "broadcast", 1048576, 64)

#: Points the fault presets and observers run on: a tree collective,
#: a contended total exchange, a small combining collective and a
#: root-serialized one per machine.
SUBSET_POINTS = [
    (machine, op, nbytes, p)
    for machine in MACHINES
    for op, nbytes, p in (("broadcast", 65536, 16),
                          ("alltoall", 65536, 16),
                          ("allreduce", 4096, 5),
                          ("scatter", 4096, 32))
]


def case_id(case: Case) -> str:
    machine, op, nbytes, p, seed, faults, observer = case
    return f"{machine} {op} {nbytes} p{p} seed{seed} {faults} {observer}"


def matrix() -> List[Case]:
    """Every case of the reference, in file order."""
    cases: List[Case] = []
    for machine in MACHINES:
        for op in OPS:
            for nbytes in ((0,) if op == "barrier" else SIZES):
                for p in NODES:
                    for seed in SEEDS:
                        cases.append((machine, op, nbytes, p, seed,
                                      "none", "plain"))
    points = SUBSET_POINTS + [MIDFLIGHT_POINT]
    for faults in FAULT_PRESETS:
        for point in points:
            cases.append(point + (0, faults, "plain"))
    for observer in ("trace", "metrics", "both"):
        for point in points:
            cases.append(point + (0, "none", observer))
        for faults in FAULT_PRESETS:
            for point in (SUBSET_POINTS[0], SUBSET_POINTS[1],
                          MIDFLIGHT_POINT):
                cases.append(point + (0, faults, observer))
    return cases


#: The few fault-free points the tier-1 suite checks, besides one case
#: per fault preset and observer: a tree collective, a combining one, a
#: small total exchange, and the differential harness's contended total
#: exchanges.
TIER1_POINTS = [
    ("sp2", "broadcast", 4096, 16),
    ("t3d", "allreduce", 4096, 32),
    ("paragon", "alltoall", 64, 5),
    ("paragon", "alltoall", 65536, 16),
    ("t3d", "alltoall", 65536, 32),
    ("paragon", "alltoall", 65536, 32),
]


def tier1_cases() -> List[Case]:
    """A subset of :func:`matrix` that runs in a few seconds."""
    cases: List[Case] = [point + (0, "none", "plain")
                         for point in TIER1_POINTS]
    for faults in FAULT_PRESETS:
        point = MIDFLIGHT_POINT if faults == "midflight-outage" \
            else SUBSET_POINTS[4]
        cases.append(point + (0, faults, "plain"))
    for observer in ("trace", "metrics", "both"):
        cases.append(SUBSET_POINTS[0] + (0, "none", observer))
    cases.append(SUBSET_POINTS[1] + (0, "chaos", "both"))
    known = set(matrix())
    assert all(case in known for case in cases)
    return cases


def _canonical_spans(spans) -> List[list]:
    """Spans sorted by content, ids and parents replaced by positions.

    The sort key is ``(start, end, category, node, name, detail)``,
    extended by the parent's key so identical spans under different
    parents still sort the same way on every run.
    """
    by_id = {span.id: span for span in spans}
    keys: Dict[int, tuple] = {}

    def key(span) -> tuple:
        cached = keys.get(span.id)
        if cached is None:
            own = (span.start,
                   float("inf") if span.end is None else span.end,
                   span.category,
                   -1 if span.node is None else span.node, span.name,
                   json.dumps(span.detail, sort_keys=True, default=repr))
            parent = by_id.get(span.parent)
            cached = own + ((key(parent),) if parent is not None else ())
            keys[span.id] = cached
        return cached

    ordered = sorted(spans, key=key)
    position = {span.id: index for index, span in enumerate(ordered)}
    return [[position[span.id], position.get(span.parent, -1), span.name,
             span.category, span.start, span.end, span.node,
             json.dumps(span.detail, sort_keys=True, default=repr)]
            for span in ordered]


def _canonical_records(records) -> List[list]:
    return sorted([record.time, record.category,
                   -1 if record.node is None else record.node,
                   json.dumps(record.detail, sort_keys=True, default=repr)]
                  for record in records)


def observe(case: Case) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one case; return its reference entry and what its digest
    covers."""
    machine, op, nbytes, p, seed, faults, observer = case
    plan = None if faults == "none" else fault_preset(faults)
    world = MpiWorld(machine, p, seed=seed, faults=plan,
                     **OBSERVERS[observer])
    meter = WorkMeter()
    world.env.work = meter
    try:
        elapsed = repr(world.run_collective(op, nbytes))
    except DeliveryError as error:
        # A plan can leave no route at all: the give-up is the outcome.
        elapsed = f"{error} at {world.env.now!r}"
    machine_model = world.machine
    fabric = machine_model.fabric
    links = sorted(
        [repr(link_id), link.bytes_carried, link.transfers, link.busy_us,
         link.wait_us, link.contended_transfers]
        for link_id, link in fabric._links.items()
        if link.transfers or link.contended_transfers)
    tracer = world.tracer
    parts = {
        "links": links,
        "nics": [[node.nic.messages_sent, node.nic.messages_received]
                 for node in machine_model.nodes],
        "metrics": world.metrics.snapshot(),
        "spans": _canonical_spans(tracer.spans()),
        "records": _canonical_records(tracer.records()),
    }
    text = json.dumps(parts, sort_keys=True, default=repr)
    injector = machine_model.injector
    work = meter.snapshot()
    entry = {
        "elapsed": elapsed,
        "work": {name: work[name] for name in MODEL_COUNTERS},
        "injector": None if injector is None else {
            name: getattr(injector, name) for name in INJECTOR_COUNTERS},
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
    return entry, parts


def run_case(case: Case) -> Dict[str, Any]:
    """Run one case; return its reference entry."""
    return observe(case)[0]


#: The one reference entry the process-per-hop wire made depend on its
#: observers.  With metrics on, that wire requested NIC engines instead
#: of booking them, so two wire ends at one instant (2->8 and 3->8 at
#: 36923.84 us) resolved in grant order rather than issue order, and
#: the two messages drew each other's delivery jitter: its trace
#: differs from the same run traced without metrics.  The one wire
#: takes issue order whatever observes it, so this case is held to its
#: twins instead: the trace of the ``trace`` case and the metrics of
#: the ``metrics`` case, each of which matches its own entry.
OBSERVER_ARTIFACTS = {
    ("sp2", "alltoall", 65536, 16, 0, "lossy", "both"),
}


def matches(case: Case, reference: Dict[str, Dict[str, Any]]) -> bool:
    """Whether the current code reproduces ``case``'s reference entry."""
    expected = reference[case_id(case)]
    if case not in OBSERVER_ARTIFACTS:
        return run_case(case) == expected
    entry, parts = observe(case)
    traced_case = case[:-1] + ("trace",)
    metered_case = case[:-1] + ("metrics",)
    traced_entry, traced = observe(traced_case)
    metered_entry, metered = observe(metered_case)
    same = {name: entry[name] for name in ("elapsed", "work", "injector")}
    return (same == {name: expected[name] for name in same}
            and traced_entry == reference[case_id(traced_case)]
            and metered_entry == reference[case_id(metered_case)]
            and parts["metrics"] == metered["metrics"]
            and all(parts[name] == traced[name]
                    for name in ("links", "nics", "spans", "records")))


def load_reference() -> Dict[str, Dict[str, Any]]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def render(entries: Dict[str, Dict[str, Any]]) -> str:
    """One case per line, so a changed case is a one-line diff."""
    lines = [f"    {json.dumps(name)}: "
             f"{json.dumps(entry, sort_keys=True)}"
             for name, entry in entries.items()]
    return '{\n  "cases": {\n' + ",\n".join(lines) + "\n  }\n}\n"


def mismatches(cases: Iterable[Case],
               reference: Optional[Dict[str, Dict[str, Any]]] = None
               ) -> List[str]:
    """Names of the cases whose run differs from the reference."""
    if reference is None:
        reference = load_reference()
    return [case_id(case) for case in cases
            if not matches(case, reference)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.wire_reference",
        description="check or rewrite the wire reference")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="run every case and compare it")
    action.add_argument("--write", action="store_true",
                        help="rewrite wire_reference.json")
    args = parser.parse_args(argv)
    cases = matrix()
    if args.write:
        entries = {case_id(case): run_case(case) for case in cases}
        REFERENCE_PATH.write_text(render(entries), encoding="utf-8")
        print(f"wrote {len(entries)} cases to {REFERENCE_PATH}")
        return 0
    failed = mismatches(cases)
    for name in failed:
        print(f"MISMATCH {name}")
    print(f"wire reference: {len(cases) - len(failed)} of {len(cases)} "
          f"cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
