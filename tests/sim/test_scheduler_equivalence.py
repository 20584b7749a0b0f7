"""Differential equivalence harness for the engine and the wire paths.

The engine keeps one heap ordered by ``(time, priority, eid)`` and the
transport carries contention-free messages analytically (``_wire_fast``)
instead of through the full attempt loop.  Neither shortcut may ever be
*observable*: this harness runs randomized process/resource/transfer
graphs (hypothesis) and real MPI workloads and asserts

* the same graph pops a **byte-identical event log** — the exact
  ``(time, priority, eid, event-type)`` sequence — and identical
  :class:`~repro.obs.perf.WorkMeter` snapshots on every run, in
  non-decreasing time order;
* short-circuited (``fast_wire=True``) runs match full-simulation
  times to 1e-12 s (1e-6 of this repo's microsecond unit) and carry the
  same traffic: equal bytes per link and message counts per NIC —
  including contended total exchanges, whose busy routes go through
  the fabric's callback route chain;
* under fault plans that only draw per-message fates or slow node
  software, the two paths agree exactly: times, traffic, retries and
  every fault-injector counter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, fault_preset
from repro.mpi import MpiWorld
from repro.obs.perf import WorkMeter
from repro.sim import Environment, Resource, Store

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: 1e-12 seconds in this repo's microsecond time unit.
TIME_TOLERANCE_US = 1e-6


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


def run_collective(machine, op, nbytes, p, fast_wire=True, waits=False):
    """Run one collective; return (elapsed, work snapshot, traffic).

    ``traffic`` is what the wire paths put on the hardware: bytes per
    link and ``(messages_sent, messages_received)`` per NIC — plus,
    with ``waits``, each link's queueing delay and waiting-transfer
    count."""
    world = MpiWorld(machine, p, seed=0, fast_wire=fast_wire)
    meter = WorkMeter()
    world.env.work = meter
    elapsed = world.run_collective(op, nbytes)
    fabric = world.machine.fabric
    traffic = {
        "links": fabric.utilisation(),
        "nics": [(node.nic.messages_sent, node.nic.messages_received)
                 for node in world.machine.nodes],
    }
    if waits:
        traffic["waits"] = {
            link_id: (fabric.link(link_id).wait_us,
                      fabric.link(link_id).contended_transfers)
            for link_id in traffic["links"]}
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


def test_full_path_identical_across_runs():
    # The attempt loop is the reference the fast path is checked
    # against: it must be deterministic on its own.
    for workload in MPI_CASES[:2]:
        first = run_collective(*workload, fast_wire=False)
        assert first == run_collective(*workload, fast_wire=False), \
            workload
        assert first[1]["transfers_shortcircuited"] == 0, workload


# -- analytic short-circuit vs full simulation -----------------------------

@given(mpi_workloads())
@settings(max_examples=25, deadline=None)
def test_short_circuit_matches_full_simulation(workload):
    fast_time, fast_work, fast_traffic = run_collective(*workload,
                                                        fast_wire=True)
    slow_time, slow_work, slow_traffic = run_collective(*workload,
                                                        fast_wire=False)
    assert abs(fast_time - slow_time) <= TIME_TOLERANCE_US, workload
    # The fast path may never simulate *less* traffic than it books.
    assert fast_work["messages_sent"] == slow_work["messages_sent"]
    assert fast_work["messages_delivered"] == \
        slow_work["messages_delivered"]
    assert fast_traffic == slow_traffic, workload
    assert slow_work["transfers_shortcircuited"] == 0


def test_short_circuit_exact_on_fixed_cases():
    for workload in MPI_CASES:
        fast_time, fast_work, fast_traffic = run_collective(
            *workload, fast_wire=True)
        slow_time, _slow_work, slow_traffic = run_collective(
            *workload, fast_wire=False)
        assert abs(fast_time - slow_time) <= TIME_TOLERANCE_US, workload
        assert fast_traffic == slow_traffic, workload
        assert fast_traffic["links"], f"{workload} carried no bytes"
        assert fast_work["transfers_shortcircuited"] > 0, \
            f"{workload} never took the analytic path"


def test_route_chain_exact_on_contended_alltoall():
    # Equal link waits and stall counts pin the order in which the
    # route chain wins each link FIFO, not only the collective's time.
    for workload in CONTENDED_CASES:
        fast_time, fast_work, fast_traffic = run_collective(
            *workload, fast_wire=True, waits=True)
        slow_time, slow_work, slow_traffic = run_collective(
            *workload, fast_wire=False, waits=True)
        assert fast_work["transfers_stalled"] > 0, \
            f"{workload} never waited for a link"
        assert fast_work["transfers_shortcircuited"] > 0, workload
        assert abs(fast_time - slow_time) <= TIME_TOLERANCE_US, workload
        assert fast_traffic == slow_traffic, workload
        for counter in ("link_acquisitions", "transfers_stalled"):
            assert fast_work[counter] == slow_work[counter], \
                (workload, counter)


# -- fate-only fault plans: short-circuit vs full simulation ----------------

#: Plans the short-circuit carries: per-message fates and node
#: slowdowns, no fault that acts on a transfer in flight.
FATE_ONLY_PLANS = [
    fault_preset("lossy"),
    fault_preset("slow-node"),
    FaultPlan(name="corrupting", corruption_probability=0.05),
]

#: A tree collective and a contended total exchange per machine, so
#: retries go through both the idle-route booking and the route chain.
FAULTY_CASES = [
    (machine, op, nbytes, p)
    for machine in ("sp2", "t3d", "paragon")
    for op, nbytes, p in (("broadcast", 4096, 16),
                          ("alltoall", 65536, 16))
]


def hog_transmit_engines(world, period_us, hold_us, cycles):
    """Occupy every NIC's transmit engine through the request protocol
    for ``hold_us`` out of every ``period_us``, ``cycles`` times.

    Within a run the short-circuit may take, the wire paths book NIC
    engines and never queue a request on one, so an engine only refuses
    a booking while an outside user like this one holds or awaits it.
    """
    env = world.env

    def hog(engine):
        for _ in range(cycles):
            yield env.timeout(period_us)
            request = engine.request()
            yield request
            yield env.timeout(hold_us)
            engine.release(request)

    for node in world.machine.nodes:
        env.process(hog(node.nic._tx), name="hog")


def run_faulty(machine, op, nbytes, p, plan, fast_wire, hogged=False):
    """Run one collective under ``plan``; return (observables, work,
    how many retries continued in ``_wire`` after the short-circuit
    carried the attempt before).  ``hogged`` adds
    :func:`hog_transmit_engines`."""
    world = MpiWorld(machine, p, seed=0, faults=plan,
                     fast_wire=fast_wire)
    meter = WorkMeter()
    world.env.work = meter
    if hogged:
        hog_transmit_engines(world, period_us=700.0, hold_us=150.0,
                             cycles=20)
    transport = world.comm.transport
    wire = transport._wire
    resumed = []

    def counting_wire(*args, **kwargs):
        if kwargs.get("attempt", 0) > 0:
            resumed.append(args[:2])
        return wire(*args, **kwargs)

    transport._wire = counting_wire
    elapsed = world.run_collective(op, nbytes)
    injector = world.machine.injector
    observables = {
        "elapsed": elapsed,
        "links": world.machine.fabric.utilisation(),
        "nics": [(node.nic.messages_sent, node.nic.messages_received)
                 for node in world.machine.nodes],
        "injector": {name: getattr(injector, name) for name in (
            "messages_lost", "messages_corrupted", "transfers_aborted",
            "reroutes", "unroutable", "retransmits",
            "spurious_retransmits", "nic_stall_total_us")},
    }
    return observables, meter.snapshot(), len(resumed)


def test_fate_only_plans_exact_on_short_circuit():
    """Lost and corrupted attempts, their retransmissions and slowed
    node software replay the full path exactly on the short-circuit —
    including, with the transmit engines hogged, retries that find
    their engines busy and continue in the full attempt loop."""
    for plan in FATE_ONLY_PLANS:
        for workload in FAULTY_CASES:
            fast, fast_work, resumed = run_faulty(*workload, plan,
                                                  fast_wire=True)
            slow, slow_work, _ = run_faulty(*workload, plan,
                                            fast_wire=False)
            assert resumed == 0, (plan.name, workload)
            assert fast == slow, (plan.name, workload)
            assert fast_work["transfers_shortcircuited"] > 0, \
                (plan.name, workload)
            for counter in ("messages_sent", "messages_delivered",
                            "retransmissions", "transfers_booked",
                            "link_acquisitions", "transfers_stalled"):
                assert fast_work[counter] == slow_work[counter], \
                    (plan.name, workload, counter)
            if plan.is_probabilistic:
                assert fast["injector"]["retransmits"] > 0, \
                    (plan.name, workload)
    fell_back = 0
    for workload in FAULTY_CASES:
        fast, _, resumed = run_faulty(*workload, FATE_ONLY_PLANS[0],
                                      fast_wire=True, hogged=True)
        slow, _, _ = run_faulty(*workload, FATE_ONLY_PLANS[0],
                                fast_wire=False, hogged=True)
        assert fast == slow, workload
        fell_back += resumed
    assert fell_back > 0, "no retry ever found its engines busy"


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
