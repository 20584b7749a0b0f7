"""The analytic short-circuit must never be taken where a fault could
observe the difference.

The fast path books transfers with timestamp arithmetic instead of
simulating engines and links, which is only sound when nothing can
perturb the transfer mid-flight.  A :class:`~repro.faults.FaultPlan`
with link outages, link degradations or NIC stalls therefore keeps
every transfer on the simulated path; a plan that only draws
per-message fates (loss, corruption) or slows node software rides the
short-circuit and must replay the full path exactly.  These tests pin
that guard and prove faulted runs behave identically whether or not
the fast path was *offered*.
"""

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


def _run(machine, p, op, nbytes, faults=None, fast_wire=True, seed=5):
    world = MpiWorld(machine, p, seed=seed, faults=faults,
                     fast_wire=fast_wire)
    meter = WorkMeter()
    world.env.work = meter
    elapsed = world.run_collective(op, nbytes)
    injector = world.machine.injector
    return elapsed, meter.snapshot(), injector


def test_clean_run_takes_the_short_circuit():
    _elapsed, work, injector = _run("t3d", 16, "broadcast", 4096)
    assert injector is None
    assert work["transfers_shortcircuited"] > 0


def test_wire_faults_keep_the_full_path():
    # Faults that act on a transfer after it is issued — a link outage,
    # a link degradation, a NIC stall — must see every hop simulated.
    plans = [
        FaultPlan(name="outage",
                  link_outages=(LinkOutage(src=0, dst=1, start_us=0.0,
                                           end_us=500.0),)),
        FaultPlan(name="degraded",
                  link_degradations=(LinkDegradation(src=0, dst=1,
                                                     factor=2.0),)),
        FaultPlan(name="stalled",
                  nic_stalls=(NicStall(node=1, start_us=0.0,
                                       duration_us=200.0),)),
    ]
    for plan in plans:
        assert plan.has_inflight_faults, plan.name
        _elapsed, work, injector = _run("t3d", 16, "broadcast", 4096,
                                        faults=plan)
        assert injector is not None, plan.name
        assert work["transfers_shortcircuited"] == 0, plan.name
        assert work["transfers_booked"] > 0, plan.name


#: Work counters that legitimately differ between the two wire paths:
#: the event queue's own traffic, the short-circuit tally, and how a
#: resource was taken (a timestamp booking or a request/grant/release
#: round), which :func:`_acquisitions` checks as a total instead.
_PATH_COUNTERS = frozenset({
    "events_scheduled", "events_fired", "callbacks_dispatched",
    "heap_pushes", "heap_pops", "heap_peak", "transfers_shortcircuited",
    "resource_requests", "resource_grants", "resource_releases",
    "resource_occupancies"})


def _shared_work(work):
    return {name: value for name, value in work.items()
            if name not in _PATH_COUNTERS}


def _acquisitions(work):
    """Engine and link uses, however each was taken."""
    return work["resource_requests"] + work["resource_occupancies"]


def _injector_counters(injector):
    return {name: getattr(injector, name) for name in (
        "messages_lost", "messages_corrupted", "transfers_aborted",
        "reroutes", "unroutable", "retransmits", "spurious_retransmits",
        "nic_stall_total_us")}


def test_fate_only_plans_take_the_short_circuit():
    """Plans that only draw per-message fates or slow node software
    ride the short-circuit, and the run is the full path's exactly:
    the same finish time, fault counters and (queue traffic aside)
    work."""
    plans = [
        FaultPlan(name="lossy", loss_probability=0.3),
        FaultPlan(name="corrupting", corruption_probability=0.3),
        FaultPlan(name="slow",
                  node_slowdowns=(NodeSlowdown(node=1, factor=2.0),)),
    ]
    for plan in plans:
        assert not plan.has_inflight_faults, plan.name
        fast = _run("t3d", 16, "broadcast", 4096, faults=plan)
        slow = _run("t3d", 16, "broadcast", 4096, faults=plan,
                    fast_wire=False)
        assert fast[1]["transfers_shortcircuited"] > 0, plan.name
        assert slow[1]["transfers_shortcircuited"] == 0, plan.name
        assert fast[0] == slow[0], plan.name
        assert _injector_counters(fast[2]) == \
            _injector_counters(slow[2]), plan.name
        assert _shared_work(fast[1]) == _shared_work(slow[1]), plan.name
        assert _acquisitions(fast[1]) == _acquisitions(slow[1]), \
            plan.name
        if plan.is_probabilistic:
            assert fast[2].retransmits > 0, plan.name


def test_midflight_outage_identical_with_and_without_fast_wire():
    """A link dies while traffic is in flight: with an outage planned
    the fast path is ineligible, so offering it (fast_wire=True) must not
    change a single counter or microsecond — the recovery (reroutes,
    retransmissions, RTO spans) replays exactly."""
    plan = FaultPlan(
        name="midflight",
        loss_probability=0.2,
        link_outages=(LinkOutage(src=1, dst=0, start_us=100.0,
                                 end_us=2000.0),),
        retry=RetryConfig(timeout_us=500.0, backoff=2.0, max_retries=8))
    fast = _run("sp2", 8, "allreduce", 4096, faults=plan)
    slow = _run("sp2", 8, "allreduce", 4096, faults=plan,
                fast_wire=False)
    assert fast[0] == slow[0]          # same simulated finish time
    assert fast[1] == slow[1]          # same work, byte for byte
    assert fast[1]["transfers_shortcircuited"] == 0
    # The run actually exercised the recovery machinery.
    assert fast[2].retransmits == slow[2].retransmits
    assert fast[2].retransmits > 0 or fast[1]["transfers_rerouted"] > 0


def test_faulted_time_differs_from_clean_time():
    # Sanity anchor: the guard matters because faults DO change what
    # the short-circuit would have precomputed.
    clean, _, _ = _run("sp2", 8, "allreduce", 4096)
    plan = FaultPlan(name="lossy", loss_probability=0.4,
                     retry=RetryConfig(timeout_us=1000.0))
    faulted, _, _ = _run("sp2", 8, "allreduce", 4096, faults=plan)
    assert faulted > clean
