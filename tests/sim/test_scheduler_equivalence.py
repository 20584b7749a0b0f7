"""Differential equivalence harness for the engine and the wire.

The engine keeps one heap ordered by ``(time, priority, eid)``, and the
transport carries every message without processes: NIC engines and
idle routes are booked with timestamps, busy routes go through the
fabric's callback route chain.  Neither shortcut may ever be
*observable*: this harness runs randomized process/resource graphs
(hypothesis) and real MPI workloads and asserts

* the same graph pops a **byte-identical event log** — the exact
  ``(time, priority, eid, event-type)`` sequence — and identical
  :class:`~repro.obs.perf.WorkMeter` snapshots on every run, in
  non-decreasing time order;
* collectives reproduce the frozen output of the process-per-hop wire
  (``tests/golden/wire_reference.json``) exactly: elapsed time, work
  counters, and per-link bytes, busy and wait time — including
  contended total exchanges, whose busy routes wait in link FIFOs;
* so do fault plans that only draw per-message fates or slow node
  software: times, traffic, retries and every fault-injector counter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.mpi import MpiWorld
from repro.obs.perf import WorkMeter
from repro.sim import Environment, Resource, Store

from ..golden.wire_reference import (
    SUBSET_POINTS,
    case_id,
    load_reference,
    matches,
    matrix,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

REFERENCE = load_reference()


def run_logged(program_factory):
    """Run ``program_factory(env)`` to completion, recording every
    popped queue entry; return (event log, work snapshot, final time).

    The log is the complete observable behaviour of the queue: two runs
    that pop the same ``(time, priority, eid, type)`` sequence cannot
    be told apart by the simulation.
    """
    env = Environment()
    env.work = WorkMeter()
    log = []
    pop = env._pop

    def logging_pop():
        entry = pop()
        log.append((entry[0], entry[1], entry[2],
                    type(entry[3]).__name__))
        return entry

    env._pop = logging_pop
    program_factory(env)
    env.run()
    return log, env.work.snapshot(), env.now


def assert_equivalent(program_factory):
    first_log, first_work, first_now = run_logged(program_factory)
    second_log, second_work, second_now = run_logged(program_factory)
    assert first_log == second_log
    assert first_work == second_work
    assert first_now == second_now
    assert first_log, "workload fired no events at all"
    times = [entry[0] for entry in first_log]
    assert times == sorted(times)


# -- randomized process/resource/transfer graphs --------------------------

@st.composite
def process_graphs(draw):
    """A random little simulation: N processes over shared resources
    and stores, with timeouts, conditions, and handoffs."""
    n_resources = draw(st.integers(1, 3))
    n_stores = draw(st.integers(1, 2))
    n_procs = draw(st.integers(2, 6))
    durations = st.sampled_from(
        [0.0, 0.25, 0.5, 1.0, 1.0, 2.5, 7.0, 1e3, 1e-3])
    programs = []
    for _ in range(n_procs):
        actions = []
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from(
                ["timeout", "hold", "put", "get", "anyof", "allof"]))
            if kind == "timeout":
                actions.append(("timeout", draw(durations)))
            elif kind == "hold":
                actions.append(("hold", draw(st.integers(0, n_resources - 1)),
                                draw(durations)))
            elif kind in ("put", "get"):
                actions.append((kind, draw(st.integers(0, n_stores - 1))))
            else:
                actions.append((kind, draw(durations), draw(durations)))
        programs.append(actions)
    # Every get must have a matching put somewhere or the run deadlocks
    # silently (run() just returns); balance per store.
    for store in range(n_stores):
        puts = sum(a[0] == "put" and a[1] == store
                   for p in programs for a in p)
        gets = sum(a[0] == "get" and a[1] == store
                   for p in programs for a in p)
        if gets > puts:
            programs[0] = ([("put", store)] * (gets - puts)) + programs[0]
    return n_resources, n_stores, programs


def build_graph(env, spec):
    n_resources, n_stores, programs = spec
    resources = [Resource(env, capacity=1) for _ in range(n_resources)]
    stores = [Store(env) for _ in range(n_stores)]

    def run_actions(actions):
        for action in actions:
            if action[0] == "timeout":
                yield env.timeout(action[1])
            elif action[0] == "hold":
                resource = resources[action[1]]
                request = resource.request()
                yield request
                yield env.timeout(action[2])
                resource.release(request)
            elif action[0] == "put":
                stores[action[1]].put(action[0])
            elif action[0] == "get":
                yield stores[action[1]].get()
            elif action[0] == "anyof":
                yield env.any_of([env.timeout(action[1]),
                                  env.timeout(action[2])])
            else:
                yield env.all_of([env.timeout(action[1]),
                                  env.timeout(action[2])])

    for index, actions in enumerate(programs):
        env.process(run_actions(actions), name=f"graph-{index}")


@given(process_graphs())
@settings(max_examples=60, deadline=None)
def test_random_graphs_pop_identical_event_logs(spec):
    assert_equivalent(lambda env: build_graph(env, spec))


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1,
                max_size=64))
@settings(max_examples=60, deadline=None)
def test_random_timeout_batches_pop_in_identical_order(delays):
    """Wide spreads and exact ties pop by time, then creation order."""
    fired = []

    def factory(env):
        fired.clear()

        def proc():
            timeouts = [env.timeout(delay, value=index)
                        for index, delay in enumerate(delays)]
            for timeout in timeouts:
                timeout.callbacks.append(
                    lambda event: fired.append(event.value))
            yield env.all_of(timeouts)
        env.process(proc())

    assert_equivalent(factory)
    assert fired == sorted(range(len(delays)),
                           key=lambda index: (delays[index], index))


# -- real MPI workloads ----------------------------------------------------

MPI_CASES = [
    ("sp2", "broadcast", 4096, 16),
    ("t3d", "allreduce", 2048, 32),
    ("paragon", "alltoall", 256, 8),
    ("t3d", "broadcast", 65536, 64),
]

#: Total exchanges whose routes collide: the fast path hands most of
#: their transfers to the fabric's route chain, which waits in link
#: FIFOs.
CONTENDED_CASES = [
    ("paragon", "alltoall", 65536, 16),
    ("t3d", "alltoall", 65536, 32),
    ("paragon", "alltoall", 65536, 32),
]


@st.composite
def mpi_workloads(draw):
    machine = draw(st.sampled_from(["sp2", "t3d", "paragon"]))
    op = draw(st.sampled_from(
        ["broadcast", "allreduce", "alltoall", "barrier"]))
    nbytes = 0 if op == "barrier" else \
        draw(st.sampled_from([0, 64, 4096, 32768]))
    p = draw(st.sampled_from([2, 5, 16, 32]))
    return machine, op, nbytes, p


def run_collective(machine, op, nbytes, p):
    """Run one collective; return (elapsed, work snapshot, traffic).

    ``traffic`` is what the wire put on the hardware: bytes per link
    and ``(messages_sent, messages_received)`` per NIC."""
    world = MpiWorld(machine, p, seed=0)
    meter = WorkMeter()
    world.env.work = meter
    elapsed = world.run_collective(op, nbytes)
    traffic = {
        "links": world.machine.fabric.utilisation(),
        "nics": [(node.nic.messages_sent, node.nic.messages_received)
                 for node in world.machine.nodes],
    }
    return elapsed, meter.snapshot(), traffic


@given(mpi_workloads())
@settings(max_examples=25, deadline=None)
def test_random_collectives_identical_across_runs(workload):
    assert run_collective(*workload) == run_collective(*workload)


def test_fixed_collectives_identical_across_runs():
    for workload in MPI_CASES:
        first = run_collective(*workload)
        assert first == run_collective(*workload), workload
        assert first[1]["events_fired"] > 0, workload
        assert first[2]["links"], f"{workload} carried no bytes"
        assert first[1]["transfers_shortcircuited"] > 0, \
            f"{workload} never booked a route outright"


# -- the wire against the process-per-hop wire's frozen output --------------

#: Fault-free reference cases (every machine, 8 collectives, 4 sizes,
#: p in {2, 5, 16, 32}, 2 seeds).
PLAIN_CASES = [case for case in matrix() if case[5:] == ("none", "plain")]


@given(st.sampled_from(PLAIN_CASES))
@settings(max_examples=25, deadline=None)
def test_random_collectives_match_the_wire_reference(case):
    assert matches(case, REFERENCE), case


def test_route_chain_exact_on_contended_alltoall():
    # Equal link waits and stall counts pin the order in which the
    # route chain wins each link FIFO, not only the collective's time.
    for workload in CONTENDED_CASES:
        case = workload + (0, "none", "plain")
        assert matches(case, REFERENCE), workload
        _, work, _ = run_collective(*workload)
        assert work["transfers_stalled"] > 0, \
            f"{workload} never waited for a link"
        assert work["transfers_shortcircuited"] > 0, workload


# -- fate-only fault plans ---------------------------------------------------

def test_fate_only_plans_match_the_wire_reference():
    """Lost and corrupted attempts, their retransmissions and slowed
    node software replay the process-per-hop wire exactly — on a tree
    collective, a contended total exchange, a small combining
    collective and a root-serialized one per machine."""
    for plan in ("lossy", "slow-node"):
        for point in SUBSET_POINTS:
            case = point + (0, plan, "plain")
            assert matches(case, REFERENCE), case
            if plan == "lossy" and point[1] == "alltoall":
                assert REFERENCE[case_id(case)]["injector"][
                    "retransmits"] > 0, case


def test_corruption_only_plan_is_deterministic():
    plan = FaultPlan(name="corrupting", corruption_probability=0.05)

    def run():
        world = MpiWorld("t3d", 16, seed=0, faults=plan)
        meter = WorkMeter()
        world.env.work = meter
        elapsed = world.run_collective("alltoall", 65536)
        injector = world.machine.injector
        return (elapsed, meter.snapshot(), injector.messages_corrupted,
                injector.retransmits)

    first = run()
    assert first == run()
    assert first[2] > 0 and first[3] == first[2]


# -- cross-process determinism (fresh interpreter per run) -----------------

_SUBPROCESS_SNIPPET = """
import json
from repro.mpi import MpiWorld
from repro.obs import WorkMeter

meter = WorkMeter()
world = MpiWorld("sp2", 16, seed=0)
world.env.work = meter
elapsed = world.run_collective("allreduce", 4096)
print(json.dumps({"work": meter.snapshot(), "elapsed": elapsed},
                 sort_keys=True))
"""


def test_work_dump_identical_across_processes():
    """The same perfsuite-style workload in two worker processes with
    random hash seeds must emit byte-identical WorkMeter dumps and
    simulated times."""
    outputs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC,
                 "PYTHONHASHSEED": "random"})
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["work"]["events_fired"] > 0
    assert payload["elapsed"] > 0
