"""Every fault plan rides the one wire.

Messages are carried by NIC bookings and the fabric's bookings or route
chains, whatever the plan.  A plan that only draws per-message fates
(loss, corruption) or slows node software settles each attempt at its
wire end; faults that act on a transfer in flight act on the booking or
the chain that carries it: a detour and a degradation are chosen at
issue, a NIC stall is part of the engine booking, and an outage aborts
the route chains that cross its link.  These tests pin that each plan
still books whatever routes it can outright, and that the fault presets
reproduce the process-per-hop wire's frozen output exactly.
"""

import pytest

from repro.faults import (
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    NicStall,
    NodeSlowdown,
    RetryConfig,
)
from repro.mpi import MpiWorld
from repro.obs.perf import WorkMeter

from ..golden.wire_reference import (
    FAULT_PRESETS,
    MIDFLIGHT_POINT,
    SUBSET_POINTS,
    load_reference,
    matches,
)


def _run(machine, p, op, nbytes, faults=None, seed=5):
    world = MpiWorld(machine, p, seed=seed, faults=faults)
    meter = WorkMeter()
    world.env.work = meter
    elapsed = world.run_collective(op, nbytes)
    injector = world.machine.injector
    return elapsed, meter.snapshot(), injector


def test_clean_run_takes_the_short_circuit():
    _elapsed, work, injector = _run("t3d", 16, "broadcast", 4096)
    assert injector is None
    assert work["transfers_shortcircuited"] > 0


@pytest.mark.parametrize("plan", [
    FaultPlan(name="lossy", loss_probability=0.3),
    FaultPlan(name="corrupting", corruption_probability=0.3),
    FaultPlan(name="slow",
              node_slowdowns=(NodeSlowdown(node=1, factor=2.0),)),
    FaultPlan(name="degraded",
              link_degradations=(LinkDegradation(src=0, dst=1,
                                                 factor=2.0),)),
    FaultPlan(name="stalled",
              nic_stalls=(NicStall(node=1, start_us=0.0,
                                   duration_us=200.0),)),
    FaultPlan(name="outage",
              link_outages=(LinkOutage(src=0, dst=1, start_us=0.0,
                                       end_us=500.0),)),
], ids=lambda plan: plan.name)
def test_every_plan_books_idle_routes_outright(plan):
    _elapsed, work, injector = _run("t3d", 16, "broadcast", 4096,
                                    faults=plan)
    assert injector is not None
    assert work["transfers_shortcircuited"] > 0
    assert work["transfers_booked"] >= work["messages_sent"]
    if plan.is_probabilistic:
        assert injector.retransmits > 0


@pytest.mark.parametrize("preset", FAULT_PRESETS)
def test_presets_match_the_wire_reference(preset):
    reference = load_reference()
    for point in (SUBSET_POINTS[0], SUBSET_POINTS[1], MIDFLIGHT_POINT):
        case = point + (0, preset, "plain")
        assert matches(case, reference), case


def test_outage_in_flight_aborts_and_recovers():
    """A link dies while traffic crosses it: the chains holding or
    queued for it abort, and the messages recover by retransmission
    over a detour."""
    plan = FaultPlan(
        name="midflight",
        loss_probability=0.2,
        link_outages=(LinkOutage(src=1, dst=0, start_us=100.0,
                                 end_us=2000.0),),
        retry=RetryConfig(timeout_us=500.0, backoff=2.0, max_retries=8))
    first = _run("sp2", 8, "allreduce", 4096, faults=plan)
    second = _run("sp2", 8, "allreduce", 4096, faults=plan)
    assert first[:2] == second[:2]
    assert first[2].retransmits == second[2].retransmits > 0
    machine, op, nbytes, p = MIDFLIGHT_POINT
    _elapsed, work, injector = _run(machine, p, op, nbytes, seed=0,
                                    faults=FaultPlan(
                                        name="midflight-outage",
                                        link_outages=(LinkOutage(
                                            src=0, dst=1,
                                            start_us=23000.0),)))
    assert injector.transfers_aborted == work["transfers_aborted"] > 0
    assert injector.retransmits >= injector.transfers_aborted
    assert work["transfers_rerouted"] > 0


def test_faulted_time_differs_from_clean_time():
    # Sanity anchor: faults DO change what an unfaulted run would have
    # computed.
    clean, _, _ = _run("sp2", 8, "allreduce", 4096)
    plan = FaultPlan(name="lossy", loss_probability=0.4,
                     retry=RetryConfig(timeout_us=1000.0))
    faulted, _, _ = _run("sp2", 8, "allreduce", 4096, faults=plan)
    assert faulted > clean
