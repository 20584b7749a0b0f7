"""Tests for the contended network fabric."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
)
from repro.network import (
    LinkParameters,
    Mesh2D,
    NetworkFabric,
    OmegaNetwork,
    Torus3D,
    TransferAborted,
    bandwidth_to_us_per_byte,
)
from repro.obs.perf import WorkMeter
from repro.sim import Environment, RandomStreams, Tracer

PARAMS = LinkParameters(hop_latency_us=0.1, bandwidth_mbs=100.0)


def run_transfer(fabric, env, src, dst, nbytes, start=0.0):
    """Issue one transfer at ``start``; the returned dict gains its
    ``elapsed`` time (and whether it was ``aborted``) once the route is
    released."""
    done = {}

    def issue(_event=None):
        begin = env.now

        def released(release, aborted):
            done["elapsed"] = release - begin
            done["aborted"] = aborted

        release = fabric.carry(src, dst, nbytes, released)
        if release is not None:
            released(release, False)

    if start:
        env.timeout(start).callbacks.append(issue)
    else:
        issue()
    return done


def test_bandwidth_conversion():
    # 100 MB/s = 104.8576 bytes/us.
    assert bandwidth_to_us_per_byte(100.0) == pytest.approx(1 / 104.8576)
    with pytest.raises(ValueError):
        bandwidth_to_us_per_byte(0.0)


def test_uncontended_transfer_time():
    env = Environment()
    mesh = Mesh2D(4, 4)
    fabric = NetworkFabric(env, mesh, PARAMS)
    result = run_transfer(fabric, env, 0, 3, 1024)
    env.run()
    expected = 3 * 0.1 + 1024 * PARAMS.us_per_byte
    assert result["elapsed"] == pytest.approx(expected)
    assert fabric.transfer_time(0, 3, 1024) == pytest.approx(expected)


def test_self_transfer_is_free():
    env = Environment()
    fabric = NetworkFabric(env, Mesh2D(2, 2), PARAMS)
    result = run_transfer(fabric, env, 1, 1, 10 ** 6)
    env.run()
    assert result["elapsed"] == 0.0


def test_negative_size_rejected():
    env = Environment()
    fabric = NetworkFabric(env, Mesh2D(2, 2), PARAMS)
    with pytest.raises(ValueError):
        fabric.carry(0, 1, -1, lambda release, aborted: None)


def test_shared_link_serializes():
    env = Environment()
    mesh = Mesh2D(4, 1)
    fabric = NetworkFabric(env, mesh, PARAMS)
    # Both transfers use link (0,0)->(1,0).
    first = run_transfer(fabric, env, 0, 1, 1048)
    second = run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    single = 0.1 + 1048 * PARAMS.us_per_byte
    assert first["elapsed"] == pytest.approx(single)
    assert second["elapsed"] == pytest.approx(2 * single)


def test_disjoint_paths_parallel():
    env = Environment()
    mesh = Mesh2D(4, 2)
    fabric = NetworkFabric(env, mesh, PARAMS)
    a = run_transfer(fabric, env, mesh.node_at(0, 0), mesh.node_at(1, 0), 2048)
    b = run_transfer(fabric, env, mesh.node_at(0, 1), mesh.node_at(1, 1), 2048)
    env.run()
    single = 0.1 + 2048 * PARAMS.us_per_byte
    assert a["elapsed"] == pytest.approx(single)
    assert b["elapsed"] == pytest.approx(single)


def test_contention_disabled_ignores_sharing():
    env = Environment()
    mesh = Mesh2D(4, 1)
    fabric = NetworkFabric(env, mesh, PARAMS, contention=False)
    first = run_transfer(fabric, env, 0, 1, 1048)
    second = run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    single = 0.1 + 1048 * PARAMS.us_per_byte
    assert first["elapsed"] == pytest.approx(single)
    assert second["elapsed"] == pytest.approx(single)


def test_contention_trace_emitted():
    env = Environment()
    tracer = Tracer(enabled=True)
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS, tracer=tracer)
    run_transfer(fabric, env, 0, 1, 1048)
    run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    records = tracer.records("link-contention")
    assert len(records) == 1
    assert records[0].detail["waited_us"] > 0


def test_utilisation_accounting():
    env = Environment()
    mesh = Mesh2D(4, 1)
    fabric = NetworkFabric(env, mesh, PARAMS)
    run_transfer(fabric, env, 0, 2, 100)
    env.run()
    util = fabric.utilisation()
    assert util[("mesh", (0, 0), (1, 0))] == 100
    assert util[("mesh", (1, 0), (2, 0))] == 100
    assert len(util) == 2


def test_opposing_transfers_do_not_deadlock():
    # Two transfers crossing the same row in opposite directions must
    # both finish (ordered acquisition prevents circular wait).
    env = Environment()
    mesh = Mesh2D(8, 1)
    fabric = NetworkFabric(env, mesh, PARAMS)
    a = run_transfer(fabric, env, 0, 7, 4096)
    b = run_transfer(fabric, env, 7, 0, 4096)
    env.run()
    assert "elapsed" in a and "elapsed" in b


def test_many_crossing_transfers_complete_on_torus():
    env = Environment()
    torus = Torus3D(4, 4, 2)
    fabric = NetworkFabric(env, torus, PARAMS)
    results = [run_transfer(fabric, env, src, (src + 13) % 32, 512)
               for src in range(32)]
    env.run()
    assert all("elapsed" in r for r in results)


def test_omega_identity_permutation_conflict_free():
    env = Environment()
    net = OmegaNetwork(16, radix=2)
    fabric = NetworkFabric(env, net, PARAMS)
    results = [run_transfer(fabric, env, n, (n + 1) % 16, 0)
               for n in range(16)]
    env.run()
    # With zero payload every transfer costs stages * hop latency; some
    # may still queue if routes conflict, but all must complete.
    assert all(r["elapsed"] >= net.stages * 0.1 - 1e-9 for r in results)


def test_transfer_time_zero_bytes():
    env = Environment()
    fabric = NetworkFabric(env, Mesh2D(2, 2), PARAMS)
    assert fabric.transfer_time(0, 1, 0) == pytest.approx(0.1)


def test_idle_route_is_booked_whole():
    # A route whose links are all idle is booked with timestamps: the
    # release time is known at issue, and no event is scheduled.
    env = Environment()
    env.work = WorkMeter()
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS)
    release = fabric.carry(0, 3, 1048, lambda release, aborted: None)
    assert release == pytest.approx(3 * 0.1 + 1048 * PARAMS.us_per_byte)
    work = env.work
    assert work.link_acquisitions == 3
    assert work.resource_occupancies == 3
    assert work.resource_requests == 0
    assert work.transfers_completed == work.transfers_shortcircuited == 1
    assert work.transfers_stalled == 0
    assert work.events_scheduled == 0
    assert sorted(fabric.utilisation().values()) == [1048] * 3


# -- the route chain --------------------------------------------------------

def test_busy_route_waits_in_the_link_fifo():
    # Y holds the shared link 1->2 from t=0.  X (0->2) and Z (1->2) are
    # chained behind it; Z asks for that link first (X takes 0->1
    # before it), so the FIFO serves Z, then X.
    env = Environment()
    env.work = WorkMeter()
    tracer = Tracer(enabled=True)
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS, tracer=tracer)
    hold_y = 0.1 + 1048 * PARAMS.us_per_byte
    hold_x = 0.2 + 1048 * PARAMS.us_per_byte
    y = run_transfer(fabric, env, 1, 2, 1048)
    x = run_transfer(fabric, env, 0, 2, 1048)
    z = run_transfer(fabric, env, 1, 2, 1048)
    assert y["elapsed"] == pytest.approx(hold_y)  # booked at issue
    assert "elapsed" not in x and "elapsed" not in z
    env.run()
    assert z["elapsed"] == pytest.approx(2 * hold_y)
    assert x["elapsed"] == pytest.approx(2 * hold_y + hold_x)
    assert not x["aborted"] and not z["aborted"]
    work = env.work
    assert work.transfers_booked == work.transfers_completed == 3
    assert work.transfers_shortcircuited == 1
    assert work.transfers_stalled == 2
    assert work.link_acquisitions == 1 + 2 + 1
    shared = fabric.link(("mesh", (1, 0), (2, 0)))
    assert shared.contended_transfers == 2
    assert shared.bytes_carried == 3 * 1048
    waits = [record.detail["waited_us"]
             for record in tracer.records("link-contention")]
    assert waits == pytest.approx([hold_y, 2 * hold_y])
    links = tracer.spans("link")
    assert len(links) == 1 + 2 + 1
    assert all(span.end is not None for span in links)


def test_route_chain_grants_in_place_at_a_quiet_instant():
    # X (0->3) finds its middle link booked: the first and last links
    # are granted in place, the middle one through the request/grant
    # protocol once the booking expires.
    env = Environment()
    env.work = WorkMeter()
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS)
    hold_y = 0.1 + 1048 * PARAMS.us_per_byte
    run_transfer(fabric, env, 1, 2, 1048)
    x = run_transfer(fabric, env, 0, 3, 1048)
    env.run()
    assert x["elapsed"] == pytest.approx(
        hold_y + 0.3 + 1048 * PARAMS.us_per_byte)
    work = env.work
    # The chain's start, the booking-end wakeup, the one grant event
    # and the hold: the two in-place grants scheduled nothing.
    assert work.events_fired == 4
    assert work.resource_requests == work.resource_grants == 3
    assert work.resource_releases == 3
    assert work.link_acquisitions == 1 + 3


def _outage_fabric(env, start_us, tracer=None):
    plan = FaultPlan(name="outage", link_outages=(
        LinkOutage(src=0, dst=1, start_us=start_us),))
    topology = Mesh2D(4, 1)
    injector = FaultInjector(env, plan, RandomStreams(0), topology)
    return NetworkFabric(env, topology, PARAMS, tracer=tracer,
                         injector=injector), injector


def test_outage_aborts_a_chain_in_flight():
    # Every route over the outage's link is chained, so the watchdog
    # can abort it: the held link is released at the outage instant
    # and the waiting transfer behind it takes over.
    env = Environment()
    env.work = WorkMeter()
    tracer = Tracer(enabled=True)
    fabric, injector = _outage_fabric(env, 5.0, tracer=tracer)
    first = run_transfer(fabric, env, 0, 1, 1048)
    second = run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    assert first == {"elapsed": 5.0, "aborted": True}
    assert second == {"elapsed": 5.0, "aborted": True}
    assert injector.transfers_aborted == 2
    assert env.work.transfers_aborted == 2
    assert env.work.transfers_completed == 0
    assert fabric.utilisation() == {}
    link = fabric.link(("mesh", (0, 0), (1, 0)))
    assert link.resource.count == 0 and link.resource.queue_length == 0
    assert [span.end for span in tracer.spans("link")] == [5.0]
    assert injector._active == {}


def test_route_without_a_live_path_is_unroutable():
    env = Environment()
    env.work = WorkMeter()
    fabric, injector = _outage_fabric(env, 0.0)
    env.run()  # the outage begins
    with pytest.raises(TransferAborted):
        fabric.carry(0, 3, 1048, lambda release, aborted: None)
    assert injector.unroutable == 1
    assert env.work.transfers_booked == 0


def test_detour_opens_a_reroute_span():
    env = Environment()
    env.work = WorkMeter()
    tracer = Tracer(enabled=True)
    plan = FaultPlan(name="outage", link_outages=(
        LinkOutage(src=0, dst=1, start_us=0.0),))
    topology = Mesh2D(2, 2)
    injector = FaultInjector(env, plan, RandomStreams(0), topology)
    fabric = NetworkFabric(env, topology, PARAMS, tracer=tracer,
                           injector=injector)
    env.run()
    release = fabric.carry(0, 1, 1048, lambda release, aborted: None)
    assert release == pytest.approx(3 * 0.1 + 1048 * PARAMS.us_per_byte)
    assert injector.reroutes == 1 and env.work.transfers_rerouted == 1
    (reroute,) = tracer.spans("reroute")
    assert (reroute.start, reroute.end) == (0.0, release)
    links = tracer.spans("link")
    assert len(links) == 3
    assert {span.parent for span in links} == {reroute.id}


def test_degradation_stretches_the_hold():
    env = Environment()
    plan = FaultPlan(name="slow", link_degradations=(
        LinkDegradation(src=0, dst=1, factor=4.0),))
    topology = Mesh2D(4, 1)
    injector = FaultInjector(env, plan, RandomStreams(0), topology)
    fabric = NetworkFabric(env, topology, PARAMS, injector=injector)
    release = fabric.carry(0, 2, 1048, lambda release, aborted: None)
    assert release == pytest.approx(2 * 0.1 + 1048 * PARAMS.us_per_byte * 4)
    assert fabric.carry(2, 3, 1048, lambda release, aborted: None) == \
        pytest.approx(0.1 + 1048 * PARAMS.us_per_byte)
