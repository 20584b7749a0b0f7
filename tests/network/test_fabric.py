"""Tests for the contended network fabric."""

import pytest

from repro.network import (
    LinkParameters,
    Mesh2D,
    NetworkFabric,
    OmegaNetwork,
    Torus3D,
    bandwidth_to_us_per_byte,
)
from repro.obs.perf import WorkMeter
from repro.sim import Environment, Tracer

PARAMS = LinkParameters(hop_latency_us=0.1, bandwidth_mbs=100.0)


def run_transfer(fabric, env, src, dst, nbytes, start=0.0):
    done = {}

    def proc():
        yield env.timeout(start)
        begin = env.now
        yield env.process(fabric.transfer(src, dst, nbytes))
        done["elapsed"] = env.now - begin

    env.process(proc())
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
        # The generator raises on first step inside the process.
        env.process(fabric.transfer(0, 1, -1))
        env.run()


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


def test_idle_route_is_acquired_link_by_link():
    # A transfer through the process path takes every link of its route
    # through the per-hop request protocol, even when all are idle;
    # whole-route booking belongs to try_book_route alone.
    env = Environment()
    env.work = WorkMeter()
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS)
    done = run_transfer(fabric, env, 0, 3, 1048)
    env.run()
    assert done["elapsed"] == pytest.approx(
        3 * 0.1 + 1048 * PARAMS.us_per_byte)
    work = env.work
    assert work.link_acquisitions == 3
    assert work.resource_occupancies == 0
    assert work.transfers_completed == 1
    assert work.transfers_stalled == 0
    assert sorted(fabric.utilisation().values()) == [1048] * 3


# -- the contended-route chain --------------------------------------------

def issue_chain(fabric, src, dst, nbytes, log, name):
    fabric.chain_route(src, dst, nbytes,
                       lambda release: log.append((name, release)))


def issue_process(fabric, src, dst, nbytes, log, name):
    env = fabric.env

    def body():
        yield from fabric.transfer(src, dst, nbytes)
        log.append((name, env.now))

    env.process(body())


def release_log(issue_x, scenario):
    """Run ``scenario`` with transfer X issued by ``issue_x`` and Y as a
    process; return (release log, per-link waits, work meter)."""
    env = Environment()
    env.work = WorkMeter()
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS)
    log = []
    scenario(fabric, issue_x, log)
    env.run()
    waits = {link_id: (link.wait_us, link.contended_transfers)
             for link_id, link in fabric._links.items()}
    return log, waits, env.work


def same_instant_routes(fabric, issue_x, log):
    # X: 0->2 over links 0->1, 1->2; Y: 1->2 over 1->2.  Both at t=0.
    issue_x(fabric, 0, 2, 1048, log, "X")
    issue_process(fabric, 1, 2, 1048, log, "Y")


def pending_event_routes(fabric, issue_x, log):
    # X is issued at t=5 while the event issuing Y is pending at t=5.
    env = fabric.env
    env.timeout(5.0).callbacks.append(
        lambda _event: issue_x(fabric, 0, 2, 1048, log, "X"))
    env.timeout(5.0).callbacks.append(
        lambda _event: issue_process(fabric, 1, 2, 1048, log, "Y"))


def assert_chain_matches_process(scenario, start):
    chain_log, chain_waits, chain_work = release_log(issue_chain, scenario)
    ref_log, ref_waits, ref_work = release_log(issue_process, scenario)
    hold_y = 0.1 + 1048 * PARAMS.us_per_byte
    hold_x = 0.2 + 1048 * PARAMS.us_per_byte
    # Y reaches the shared link first; X queues behind it.
    assert ref_log == [("Y", start + hold_y), ("X", start + hold_y + hold_x)]
    assert chain_log == ref_log
    assert chain_waits == ref_waits
    for counter in ("resource_requests", "resource_grants",
                    "link_acquisitions", "transfers_booked",
                    "transfers_stalled", "transfers_completed"):
        assert getattr(chain_work, counter) == getattr(ref_work, counter), \
            counter
    assert chain_work.transfers_stalled == 1


def test_route_chains_issued_in_one_instant_keep_fifo_order():
    assert_chain_matches_process(same_instant_routes, 0.0)


def test_route_chain_waits_for_events_pending_at_now():
    assert_chain_matches_process(pending_event_routes, 5.0)


def test_route_chain_grants_in_place_at_a_quiet_instant():
    def alone(fabric, issue_x, log):
        issue_x(fabric, 0, 3, 1048, log, "X")

    chain_log, _, chain_work = release_log(issue_chain, alone)
    ref_log, _, ref_work = release_log(issue_process, alone)
    assert chain_log == ref_log == [("X", 0.3 + 1048 * PARAMS.us_per_byte)]
    # One start and one hold event: all three grants were in place.
    assert chain_work.events_fired == 2
    assert ref_work.events_fired > chain_work.events_fired
    assert chain_work.resource_requests == ref_work.resource_requests == 3
    assert chain_work.resource_grants == ref_work.resource_grants == 3
    assert chain_work.link_acquisitions == 3
    assert chain_work.transfers_stalled == 0
