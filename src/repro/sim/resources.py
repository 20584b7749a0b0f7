"""Shared resources for simulated processes.

Two primitives cover everything the network and node models need:

* :class:`Resource` — a counted resource with FIFO request queueing.
  Network links, NIC injection ports, and DMA engines are capacity-1
  resources; a holder models occupancy by holding the grant for the
  transfer duration.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``,
  for processes that hand items to each other.  The MPI transport does
  not use it: its posted-receive and unexpected-message queues are
  plain lists.

Occupancy fast path
-------------------
The request/grant/release protocol costs three events per occupancy.
For the overwhelmingly common case — a capacity-1 resource that is
*idle*, held for a known duration, and released untouched — callers can
instead **timestamp-book** the resource with :meth:`Resource.try_occupy`:
no events, no :class:`Request` object, just ``_busy_until`` advanced by
the hold time.  Bookings are only handed out while no requests are
queued or granted, and always extend contiguously from ``now`` (or from
the previous booking's end), so a booked resource is busy over exactly
the interval a request-holding process would have kept it.  A classic
``request()`` arriving during a booked interval queues exactly as if a
process held the resource, and a wakeup event grants the FIFO head when
the booking expires — at the same simulated time a real release would
have.  Until that wakeup has run, a new request queues behind the
waiters even at the booking's last instant, as it would behind a
holder that has not yet released.  The differential-equivalence suite
asserts this produces identical times to the pure request/release
protocol.

In-place grants
---------------
A caller that drives acquisition from callbacks rather than from a
process (the fabric's contended-route chain) can skip the grant event
too.  :meth:`Resource.try_grant` hands out a granted :class:`Request`
with no event when both of these hold:

* the resource is idle — no users, no waiters, no booking running past
  ``now`` — so :meth:`~Resource.request` would grant at once; and
* nothing is queued at the current instant (``env.peek() > env.now``),
  so the grant event ``request()`` schedules would be the very next
  event popped.

The caller must run as the sole callback of the event being
dispatched, so no other callback can schedule anything between the
in-place grant and the point where the skipped event would have fired.
Under those conditions the engine sees the same scheduling calls as
with ``request()``, minus the skipped event, in the same order: every
simulated time, FIFO order and random draw is unchanged.  Otherwise
``try_grant`` returns ``None`` and the caller falls back to
``request()``.  An in-place grant counts as one request and one grant,
exactly as ``request()`` does.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from .engine import NORMAL, Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store", "FilterStore"]

_NEVER = float("-inf")


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Fires (succeeds) when the resource grants it.  Must be returned via
    :meth:`Resource.release` when the holder is done.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with strict FIFO granting.

    FIFO ordering is what makes link contention deterministic: requests
    are granted in arrival order, with ties already resolved by the
    engine's deterministic event ordering.
    """

    __slots__ = ("env", "capacity", "_waiting", "_users", "_busy_until",
                 "_starts")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._waiting: Deque[Request] = deque()
        self._users: set = set()
        #: End of the current timestamp booking (see :meth:`try_occupy`);
        #: the resource behaves as busy while ``_busy_until > now``.
        self._busy_until = _NEVER
        #: Start times of the bookings not yet started, kept only once
        #: :meth:`track_bookings` asked for :attr:`pending_bookings`.
        self._starts: Optional[Deque[float]] = None

    @property
    def count(self) -> int:
        """Number of grants currently outstanding."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    @property
    def booked_until(self) -> float:
        """End of the current timestamp booking (``-inf`` when none)."""
        return self._busy_until

    def track_bookings(self) -> None:
        """Keep booking start times from now on, for
        :attr:`pending_bookings`."""
        if self._starts is None:
            self._starts = deque()

    @property
    def pending_bookings(self) -> int:
        """Bookings that start after now: the requests that would be
        waiting if every booking had been a request.  Needs
        :meth:`track_bookings` before the first booking."""
        starts = self._starts
        if starts is None:
            raise SimulationError("pending_bookings needs track_bookings()")
        now = self.env._now
        while starts and starts[0] <= now:
            starts.popleft()
        return len(starts)

    # -- timestamp-booking fast path --------------------------------------
    def try_occupy(self, duration: float, delay: float = 0.0
                   ) -> Optional[Tuple[float, float]]:
        """Book this resource for ``duration`` without events.

        Only possible on an idle capacity-1 resource (no users, no
        waiters).  The booking starts at ``now`` — or, back-to-back
        with an earlier booking, at that booking's end, which is
        exactly when a queued request would have been granted — and
        holds the resource for ``delay`` and then ``duration`` (a
        holder that waits ``delay`` after its grant before it starts
        the work).  Returns ``(start, previous_busy_until)`` so the
        caller can compute the end time and roll the booking back with
        :meth:`undo_occupy` (restoring ``previous_busy_until``) if a
        multi-resource booking fails partway.  Returns ``None`` when
        the protocol path must be used instead.
        """
        if self.capacity != 1 or self._users or self._waiting:
            return None
        now = self.env._now
        prev = self._busy_until
        start = prev if prev > now else now
        self._busy_until = start + delay + duration
        if self._starts is not None:
            self._starts.append(start)
        return start, prev

    def undo_occupy(self, previous_busy_until: float) -> None:
        """Roll back the most recent :meth:`try_occupy` booking.

        Only valid immediately after the booking, within the same
        synchronous block (no simulated time may have passed and no
        further bookings or requests may have been made).
        """
        self._busy_until = previous_busy_until
        if self._starts is not None:
            self._starts.pop()

    def _schedule_wakeup(self) -> None:
        """Grant the FIFO head when the active booking expires."""
        event = Event(self.env)
        event._ok = True
        event._value = None
        event.callbacks.append(self._wake)
        self.env._schedule(event, self._busy_until, NORMAL)

    def _wake(self, _event: Event) -> None:
        if self._waiting and len(self._users) < self.capacity and \
                self._busy_until <= self.env._now:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            work = self.env.work
            if work is not None:
                work.resource_grants += 1
            nxt.succeed(nxt)

    # -- in-place grant -----------------------------------------------------
    def try_grant(self) -> Optional[Request]:
        """Grant one unit now, with no event, or return ``None``.

        Only possible when the resource is idle and nothing else is
        queued at the current instant (see the module docstring); the
        caller must be the sole callback of the event being
        dispatched.  The returned request is already processed and is
        given back with :meth:`release` like any other grant.
        """
        env = self.env
        now = env._now
        if self._users or self._waiting or self._busy_until > now or \
                env.peek() <= now:
            return None
        profiler = env.profiler
        if profiler is None:
            return self._grant_in_place()
        profiler.enter("resource.request")
        try:
            return self._grant_in_place()
        finally:
            profiler.leave()

    def _grant_in_place(self) -> Request:
        req = Request(self)
        req._ok = True
        req._value = req
        req.callbacks = None
        work = self.env.work
        if work is not None:
            work.resource_requests += 1
            work.resource_grants += 1
        self._users.add(req)
        return req

    # -- request/grant/release protocol -----------------------------------
    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        profiler = self.env.profiler
        if profiler is None:
            return self._request()
        profiler.enter("resource.request")
        try:
            return self._request()
        finally:
            profiler.leave()

    def _request(self) -> Request:
        req = Request(self)
        work = self.env.work
        if work is not None:
            work.resource_requests += 1
        if len(self._users) < self.capacity:
            if self._busy_until > self.env._now or self._waiting:
                # A timestamp booking holds the resource: queue exactly
                # as behind a granted request, and let the booking-end
                # wakeup play the role of the holder's release.  Its
                # waiters keep their turn until that wakeup fires, even
                # when the booking ends at this very instant.
                if not self._waiting:
                    self._schedule_wakeup()
                self._waiting.append(req)
            else:
                if work is not None:
                    work.resource_grants += 1
                self._users.add(req)
                req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted unit and wake the next waiter."""
        profiler = self.env.profiler
        if profiler is None:
            self._release(req)
            return
        profiler.enter("resource.release")
        try:
            self._release(req)
        finally:
            profiler.leave()

    def _release(self, req: Request) -> None:
        work = self.env.work
        if req in self._users:
            self._users.remove(req)
            if work is not None:
                work.resource_releases += 1
        elif req in self._waiting:
            # Cancelled before being granted.
            self._waiting.remove(req)
            if work is not None:
                work.resource_cancellations += 1
            return
        else:
            raise SimulationError("release of a request not held")
        if self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            if work is not None:
                work.resource_grants += 1
            nxt.succeed(nxt)


class Store:
    """Unbounded FIFO of items with blocking retrieval.

    ``put`` never blocks (the simulated hardware queues we model are
    large relative to the workloads); ``get`` returns an event that
    fires with the oldest item once one is available.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Optional[Deque[Event]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items, oldest first."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``, waking the oldest blocked getter if any."""
        work = self.env.work
        if work is not None:
            work.store_puts += 1
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        work = self.env.work
        if work is not None:
            work.store_gets += 1
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class FilterStore(Store):
    """A :class:`Store` whose getters can select items by predicate.

    Used by the MPI matching layer: a receive posted for a particular
    (source, tag) envelope must take the oldest *matching* message, not
    the oldest message outright.
    """

    __slots__ = ("_filter_getters",)

    def __init__(self, env: Environment):
        super().__init__(env)
        self._filter_getters: Deque[tuple] = deque()
        self._getters = None  # unused here

    def put(self, item: Any) -> None:
        work = self.env.work
        if work is not None:
            work.store_puts += 1
        for idx, (event, predicate) in enumerate(self._filter_getters):
            if predicate(item):
                del self._filter_getters[idx]
                event.succeed(item)
                return
        self._items.append(item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        if predicate is None:
            predicate = lambda item: True  # noqa: E731 - trivial default
        work = self.env.work
        if work is not None:
            work.store_gets += 1
        event = Event(self.env)
        for idx, item in enumerate(self._items):
            if predicate(item):
                del self._items[idx]
                event.succeed(item)
                return event
        self._filter_getters.append((event, predicate))
        return event
