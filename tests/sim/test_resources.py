"""Unit tests for Resource, Store, and FilterStore."""

import pytest

from repro.obs.perf import WorkMeter
from repro.sim import Environment, FilterStore, Resource, SimulationError, Store
from repro.sim.engine import URGENT


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def worker(i):
        req = res.request()
        yield req
        grants.append((i, env.now))
        yield env.timeout(10.0)
        res.release(req)

    for i in range(4):
        env.process(worker(i))
    env.run()
    # Two immediately, two after the first pair releases at t=10.
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0), (3, 10.0)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(i, arrival):
        yield env.timeout(arrival)
        req = res.request()
        yield req
        order.append(i)
        yield env.timeout(5.0)
        res.release(req)

    env.process(worker(0, 0.0))
    env.process(worker(1, 1.0))
    env.process(worker(2, 2.0))
    env.run()
    assert order == [0, 1, 2]


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    times = []

    def worker():
        with res.request() as req:
            yield req
            times.append(env.now)
            yield env.timeout(3.0)

    env.process(worker())
    env.process(worker())
    env.run()
    assert times == [0.0, 3.0]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_of_unheld_request_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()

    def drain():
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.process(drain())
    env.run()


def test_release_of_queued_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()  # granted immediately
    queued = res.request()
    res.release(queued)  # cancel before grant
    assert res.queue_length == 0
    res.release(held)
    assert res.count == 0


def test_resource_counters():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    res.request()
    assert res.count == 1
    assert res.queue_length == 1
    res.release(first)
    assert res.count == 1  # queued request got the grant
    assert res.queue_length == 0


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")

    def getter():
        first = yield store.get()
        second = yield store.get()
        return (first, second)

    p = env.process(getter())
    env.run()
    assert p.value == ("a", "b")


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def getter():
        item = yield store.get()
        return (env.now, item)

    def putter():
        yield env.timeout(6.0)
        store.put("late")

    p = env.process(getter())
    env.process(putter())
    env.run()
    assert p.value == (6.0, "late")


def test_store_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def getter(i):
        item = yield store.get()
        got.append((i, item))

    for i in range(3):
        env.process(getter(i))

    def putter():
        yield env.timeout(1.0)
        for item in ("x", "y", "z"):
            store.put(item)

    env.process(putter())
    env.run()
    assert got == [(0, "x"), (1, "y"), (2, "z")]


def test_store_len_and_items():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == (1, 2)


def test_filter_store_matches_predicate():
    env = Environment()
    store = FilterStore(env)
    store.put({"tag": 1, "data": "one"})
    store.put({"tag": 2, "data": "two"})

    def getter():
        item = yield store.get(lambda msg: msg["tag"] == 2)
        return item["data"]

    p = env.process(getter())
    env.run()
    assert p.value == "two"
    assert len(store) == 1  # the tag-1 item is still there


def test_filter_store_blocks_until_matching_put():
    env = Environment()
    store = FilterStore(env)

    def getter():
        item = yield store.get(lambda msg: msg == "wanted")
        return (env.now, item)

    def putter():
        yield env.timeout(1.0)
        store.put("unwanted")
        yield env.timeout(1.0)
        store.put("wanted")

    p = env.process(getter())
    env.process(putter())
    env.run()
    assert p.value == (2.0, "wanted")
    assert store.items == ("unwanted",)


def test_filter_store_oldest_match_wins():
    env = Environment()
    store = FilterStore(env)
    store.put(("a", 1))
    store.put(("a", 2))

    def getter():
        item = yield store.get(lambda msg: msg[0] == "a")
        return item

    p = env.process(getter())
    env.run()
    assert p.value == ("a", 1)


def test_filter_store_default_predicate_takes_any():
    env = Environment()
    store = FilterStore(env)
    store.put("only")

    def getter():
        item = yield store.get()
        return item

    p = env.process(getter())
    env.run()
    assert p.value == "only"


# -- timestamp bookings (the engine speed overhaul's fast path) -----------

def test_try_occupy_books_contiguously():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.try_occupy(5.0)
    assert first == (0.0, float("-inf"))
    assert resource.booked_until == 5.0
    # Back-to-back booking starts exactly where the previous one ends —
    # the instant a queued request would have been granted.
    second = resource.try_occupy(2.5)
    assert second == (5.0, 5.0)
    assert resource.booked_until == 7.5


def test_try_occupy_refused_on_held_or_contended_resource():
    env = Environment()
    shared = Resource(env, capacity=2)
    assert shared.try_occupy(1.0) is None  # only capacity-1 is bookable

    held = Resource(env, capacity=1)
    grant = held.request()
    assert held.try_occupy(1.0) is None  # a user holds it

    held.release(grant)
    assert held.try_occupy(1.0) is not None


def test_undo_occupy_restores_previous_booking():
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.try_occupy(4.0)
    booking = resource.try_occupy(3.0)
    assert booking is not None
    resource.undo_occupy(booking[1])
    assert resource.booked_until == 4.0


def test_request_during_booking_waits_for_expiry():
    """A request arriving mid-booking is granted exactly when the
    booking expires — time-equivalent to queueing behind a real
    holder's release."""
    env = Environment()
    resource = Resource(env, capacity=1)
    grant_times = []

    def booker():
        booking = resource.try_occupy(6.0)
        assert booking is not None
        yield env.timeout(6.0)

    def requester():
        yield env.timeout(1.0)  # booking is active now
        request = resource.request()
        yield request
        grant_times.append(env.now)
        resource.release(request)

    env.process(booker())
    env.process(requester())
    env.run()
    assert grant_times == [6.0]


def test_booking_respects_fifo_among_queued_requests():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def requester(name, arrive):
        yield env.timeout(arrive)
        request = resource.request()
        yield request
        order.append((name, env.now))
        yield env.timeout(1.0)
        resource.release(request)

    resource.try_occupy(5.0)
    env.process(requester("first", 1.0))
    env.process(requester("second", 2.0))
    env.run()
    assert order == [("first", 5.0), ("second", 6.0)]


def test_request_at_booking_end_queues_behind_waiters():
    """A request made at the instant a booking ends, before the
    booking's wakeup has granted the queued head, must not overtake
    it: a real holder would still hold the resource at that point."""
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def requester(name, arrive):
        yield env.timeout(arrive)
        request = resource.request()
        yield request
        order.append((name, env.now))
        yield env.timeout(1.0)
        resource.release(request)

    resource.try_occupy(5.0)
    # Created first, so its arrival timeout fires at t=5 before the
    # wakeup the "first" request schedules at t=1.
    env.process(requester("late", 5.0))
    env.process(requester("first", 1.0))
    env.run()
    assert order == [("first", 5.0), ("late", 6.0)]


def test_booking_counts_as_occupancy_not_grant():
    env = Environment()
    meter = WorkMeter()
    env.work = meter
    resource = Resource(env, capacity=1)

    def booker():
        booking = resource.try_occupy(2.0)
        assert booking is not None
        env.work.resource_occupancies += 1  # the callers' convention
        yield env.sleep_until(booking[0] + 2.0)

    env.process(booker())
    env.run()
    assert meter.resource_occupancies == 1
    assert meter.resource_requests == 0
    assert meter.resource_grants == 0


# -- in-place grants -------------------------------------------------------

def acquire_by_chain(env, resources, name, log):
    """Take ``resources`` in order from callbacks — in place where
    :meth:`Resource.try_grant` allows, else through ``request()`` and a
    grant callback — hold them for 1.0, then release; log each grant."""
    held = []

    def step(_event):
        while len(held) < len(resources):
            resource = resources[len(held)]
            request = resource.try_grant()
            if request is None:
                request = resource.request()
                held.append(request)
                request.callbacks.append(granted)
                return
            held.append(request)
            log.append((name, len(held) - 1, env.now))
        env.timeout(1.0).callbacks.append(release)

    def granted(_event):
        log.append((name, len(held) - 1, env.now))
        step(_event)

    def release(_event):
        for resource, request in zip(resources, held):
            resource.release(request)

    start = env.event()
    start.callbacks.append(step)
    start.succeed(priority=URGENT)


def acquire_by_process(env, resources, name, log):
    """The request/grant protocol reference for :func:`acquire_by_chain`."""
    def body():
        held = []
        for index, resource in enumerate(resources):
            request = resource.request()
            held.append(request)
            yield request
            log.append((name, index, env.now))
        yield env.timeout(1.0)
        for resource, request in zip(resources, held):
            resource.release(request)

    env.process(body())


def grant_log(acquire, scenario):
    env = Environment()
    env.work = WorkMeter()
    log = []
    scenario(env, acquire, log)
    env.run()
    return log, env.work


def same_instant(env, acquire, log):
    # X takes [a, b] and Y takes [b], both issued at t=0, X first.
    a, b = Resource(env), Resource(env)
    acquire(env, [a, b], "X", log)
    acquire(env, [b], "Y", log)


def pending_at_issue(env, acquire, log):
    # At t=5 X is issued over [a, b] while the event issuing Y over [b]
    # is still pending at that instant.
    a, b = Resource(env), Resource(env)
    env.timeout(5.0).callbacks.append(
        lambda _event: acquire(env, [a, b], "X", log))
    env.timeout(5.0).callbacks.append(
        lambda _event: acquire(env, [b], "Y", log))


def test_try_grant_same_instant_chains_keep_fifo_order():
    # X's grant on ``a`` is an event in the request protocol, and Y's
    # start is popped before it: Y reaches ``b`` first.  Granting X's
    # links in place would hand ``b`` to X.
    chain, chain_work = grant_log(acquire_by_chain, same_instant)
    reference, reference_work = grant_log(acquire_by_process, same_instant)
    assert reference == [("X", 0, 0.0), ("Y", 0, 0.0), ("X", 1, 1.0)]
    assert chain == reference
    assert chain_work.resource_grants == reference_work.resource_grants


def test_try_grant_waits_for_events_pending_at_now():
    chain, _ = grant_log(acquire_by_chain, pending_at_issue)
    reference, _ = grant_log(acquire_by_process, pending_at_issue)
    assert reference == [("X", 0, 5.0), ("Y", 0, 5.0), ("X", 1, 6.0)]
    assert chain == reference


def test_try_grant_at_a_quiet_instant_skips_the_grant_events():
    def alone(env, acquire, log):
        acquire(env, [Resource(env), Resource(env)], "X", log)

    chain, chain_work = grant_log(acquire_by_chain, alone)
    reference, reference_work = grant_log(acquire_by_process, alone)
    assert chain == reference == [("X", 0, 0.0), ("X", 1, 0.0)]
    # Start and hold only: both grant events were skipped.
    assert chain_work.events_fired == 2
    assert reference_work.events_fired > chain_work.events_fired
    for counter in ("resource_requests", "resource_grants",
                    "resource_releases"):
        assert getattr(chain_work, counter) == \
            getattr(reference_work, counter) == 2


def test_try_grant_counts_like_request():
    env = Environment()
    meter = WorkMeter()
    env.work = meter
    requested, granted = Resource(env), Resource(env)
    requested.request()
    env.run()  # fire its grant event: nothing is pending any more
    after_request = meter.snapshot()
    request = granted.try_grant()
    assert request is not None and request.processed
    assert request.value is request
    assert granted.count == 1
    after_grant = meter.snapshot()
    for counter in ("resource_requests", "resource_grants"):
        assert after_request[counter] == 1
        assert after_grant[counter] == 2
    # No event is scheduled for an in-place grant.
    assert after_grant["events_scheduled"] == \
        after_request["events_scheduled"]
    granted.release(request)
    assert granted.count == 0
    assert meter.resource_releases == 1


def test_try_grant_refused_unless_idle_at_a_quiet_instant():
    env = Environment()
    resource = Resource(env)
    held = resource.request()  # a user holds it (its grant is pending)
    assert resource.try_grant() is None
    env.run()
    queued = resource.request()  # a waiter is queued
    assert resource.try_grant() is None
    resource.release(held)
    resource.release(queued)
    env.run()
    resource.try_occupy(1.0)  # booked past now
    assert resource.try_grant() is None
    env.run(until=1.0)
    env.timeout(0.0)  # an event pending at the current instant
    assert resource.try_grant() is None
    env.run()
    assert resource.try_grant() is not None
