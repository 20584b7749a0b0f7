"""Dynamic network fabric: routes transfers over contended links.

The fabric applies a *channel-occupancy* approximation of wormhole
routing: a message acquires every link on its route, holds them all for

    hops * hop_latency + nbytes * us_per_byte

and releases them.  The per-byte term is paid once (the worm is
pipelined across hops), while messages whose routes share a link
serialize — which is what produces the network-contention component of
collective times.

Deadlock freedom: links are always acquired in one global canonical
order (their index in ``topology.links()``), so no cyclic wait can
arise regardless of topology or traffic pattern.

Contended routes without processes: a transfer the transport's
short-circuit could not book (some route link busy at issue) is carried
by :meth:`NetworkFabric.chain_route`, a chain of callbacks that
acquires the route's links in canonical order — granting each in place
(:meth:`~repro.sim.Resource.try_grant`) when its grant event would have
been the next one popped, else through the request/grant protocol —
holds them, and releases them.  Its events sit where a process running
:meth:`NetworkFabric.transfer` would schedule its own, minus the
skipped grants, so times and FIFO orders are the process path's.

Observability: every link accumulates busy/wait time (see
:class:`~repro.network.link.Link`), transfers emit ``link``-category
occupancy spans nested under the message span when tracing is on, and
the fabric feeds transfer/stall counters and wait/size histograms to
the machine's metrics registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..sim import Environment, Event, Interrupt, Request, Span, Tracer
from ..sim.engine import NORMAL, URGENT
from .link import Link, LinkParameters
from .topology import LinkId, Topology

#: A rolled-back-able set of link bookings: ``(link, previous_busy_until)``
#: per link, in canonical acquisition order.
RouteBooking = List[Tuple[Link, float]]

__all__ = ["NetworkFabric", "TransferAborted"]


class TransferAborted(Exception):
    """A transfer died in the network: its route crossed a link that
    failed mid-flight, or no live route existed when it was issued.
    The resilient transport treats this exactly like a lost message and
    retransmits (possibly over a detour)."""

    def __init__(self, src: int, dst: int, reason: str):
        super().__init__(f"transfer {src}->{dst} aborted: {reason}")
        self.src = src
        self.dst = dst
        self.reason = reason


class NetworkFabric:
    """Routes byte transfers over a :class:`Topology` with contention."""

    def __init__(self, env: Environment, topology: Topology,
                 params: LinkParameters, contention: bool = True,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 injector: Optional[object] = None):
        self.env = env
        self.topology = topology
        self.params = params
        self.contention = contention
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        #: Optional :class:`~repro.faults.FaultInjector`.  ``None`` (the
        #: default, and always the case for fault-free plans) keeps the
        #: transfer hot path identical to the no-faults build.
        self.injector = injector
        self._links: Dict[LinkId, Link] = {}
        self._order: Dict[LinkId, int] = {}
        for index, link_id in enumerate(topology.links()):
            self._links[link_id] = Link(env, link_id, params)
            self._order[link_id] = index
        # The topology's primary routes are static; computing one per
        # transfer (positions/turns math) shows up hard in alltoall.
        # Detours around dead links are computed fresh every time.
        self._route_cache: Dict[Tuple[int, int], List[LinkId]] = {}
        self._links_cache: Dict[Tuple[int, int], List[Link]] = {}

    def _route(self, src: int, dst: int) -> List[LinkId]:
        """The (cached) fault-free route for ``src`` -> ``dst``."""
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            route = self.topology.route(src, dst)
            self._route_cache[key] = route
        return route

    def _route_links(self, src: int, dst: int) -> List[Link]:
        """The (cached) fault-free route's links in acquisition order."""
        key = (src, dst)
        links = self._links_cache.get(key)
        if links is None:
            links = [self._links[link_id] for link_id in sorted(
                self._route(src, dst), key=self._order.__getitem__)]
            self._links_cache[key] = links
        return links

    def link(self, link_id: LinkId) -> Link:
        """The :class:`Link` object for ``link_id``."""
        return self._links[link_id]

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended duration of a transfer (the occupancy hold time)."""
        hops = self.topology.distance(src, dst)
        return hops * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte

    def _select_route(self, src: int, dst: int
                      ) -> Tuple[List[LinkId], bool]:
        """The route a transfer issued now takes, detouring around any
        dead links, plus whether it is a detour.  Raises
        :class:`TransferAborted` when the live links no longer connect
        the pair."""
        injector = self.injector
        if injector is None:
            return self._route(src, dst), False
        dead = injector.dead_links(self.env.now)
        route = self._route(src, dst)
        if not dead or not any(link in dead for link in route):
            return route, False
        detour = self.topology.reroute(src, dst, dead)
        if detour is None:
            injector.record_unroutable()
            raise TransferAborted(src, dst, "no live route")
        injector.record_reroute()
        return detour, True

    # -- synchronous fast-path booking ------------------------------------
    def try_book_route(self, src: int, dst: int, nbytes: int
                       ) -> Optional[Tuple[float, RouteBooking]]:
        """Book every link of an *uncontended* transfer starting now.

        Synchronous counterpart of :meth:`transfer` for the analytic
        short-circuit: only callable when no planned fault acts on a
        transfer in flight (no outage or degradation; the caller
        checks), and only succeeds when every link on the route is idle
        at the current instant — any busy or booked link rolls the
        whole attempt back and returns ``None``, forcing the full
        simulation path (which is where contention waits, stall
        counters, and spans live).  Returns ``(hold, bookings)``; the
        caller must finish with :meth:`commit_route` (success) or
        :meth:`undo_route` (a later leg of its own booking failed).
        No counters or link statistics are touched until commit.
        """
        links = self._route_links(src, dst)
        if not links:
            return 0.0, []
        hold = len(links) * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte
        if not self.contention:
            return hold, []
        now = self.env._now
        bookings: RouteBooking = []
        for link in links:
            booking = link.resource.try_occupy(hold)
            if booking is None or booking[0] != now:
                if booking is not None:
                    link.resource.undo_occupy(booking[1])
                self.undo_route(bookings)
                return None
            bookings.append((link, booking[1]))
        return hold, bookings

    def undo_route(self, bookings: RouteBooking) -> None:
        """Roll back a :meth:`try_book_route` booking (synchronously)."""
        for link, previous in reversed(bookings):
            link.resource.undo_occupy(previous)

    def commit_route(self, bookings: RouteBooking, nbytes: int,
                     hold: float) -> None:
        """Commit a booking: link statistics and work counters."""
        for link, _ in bookings:
            link.record(nbytes, busy_us=hold)
        work = self.env.work
        if work is not None:
            if bookings:
                work.link_acquisitions += len(bookings)
                work.resource_occupancies += len(bookings)
            work.transfers_booked += 1
            work.transfers_completed += 1
            work.transfers_shortcircuited += 1

    def chain_route(self, src: int, dst: int, nbytes: int,
                    on_release: Callable[[float], None]) -> None:
        """Carry a transfer :meth:`try_book_route` refused, without a
        process.

        Same preconditions as :meth:`try_book_route` (no in-flight
        faults, no tracing or metrics), and only for a non-empty
        route with contention on — the only routes that booking can
        refuse.  The transfer starts from one event at ``(now,
        URGENT)``, where a process's first step would run, and ends by
        calling ``on_release(release_time)`` once every link is
        released.  Work counters and link statistics move exactly as
        under :meth:`transfer`.
        """
        _RouteChain(self, src, dst, nbytes, on_release)

    def transfer(self, src: int, dst: int, nbytes: int,
                 parent_span: Optional[Span] = None
                 ) -> Generator[Event, None, None]:
        """Process generator performing one ``src`` -> ``dst`` transfer.

        Yields until the message's tail has left the network.  A
        self-transfer (``src == dst``) completes immediately: it never
        enters the fabric.  ``parent_span`` (the enclosing message
        span) becomes the parent of the per-link occupancy spans.

        With a fault injector attached, the route detours around dead
        links, per-byte time stretches by the worst active degradation
        on the route, and a link dying mid-flight aborts the transfer
        with :class:`TransferAborted` (the injector interrupts this
        process; held links are released first).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        injector = self.injector
        profiler = self.env.profiler
        if profiler is None:
            route, detoured = self._select_route(src, dst)
        else:
            profiler.enter("fabric.route")
            try:
                route, detoured = self._select_route(src, dst)
            finally:
                profiler.leave()
        work = self.env.work
        if work is not None:
            work.transfers_booked += 1
            if detoured:
                work.transfers_rerouted += 1
        if not route:
            if work is not None:
                work.transfers_completed += 1
            return
        # A detour is fault-recovery work: wrap its link occupancy in a
        # dedicated span so the extra hops are attributable.
        detour_span: Optional[Span] = None
        if detoured and self.tracer.enabled:
            detour_span = self.tracer.begin(
                self.env.now, f"reroute {src}->{dst}", "reroute",
                node=src, parent=parent_span, dst=dst, nbytes=nbytes,
                hops=len(route))
            parent_span = detour_span
        factor = 1.0 if injector is None else \
            injector.route_degrade_factor(route, self.env.now)
        hold = len(route) * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte * factor
        if injector is None:
            yield from self._occupy(route, nbytes, hold, src, dst,
                                    parent_span)
            return
        process = self.env.active_process
        injector.begin_transfer(process, route)
        try:
            yield from self._occupy(route, nbytes, hold, src, dst,
                                    parent_span)
        except Interrupt as interrupt:
            injector.record_abort()
            if work is not None:
                work.transfers_aborted += 1
            raise TransferAborted(src, dst,
                                  f"interrupted: {interrupt.cause}")
        finally:
            injector.end_transfer(process)
            if detour_span is not None:
                self.tracer.end(detour_span, self.env.now)

    def _occupy(self, route: List[LinkId], nbytes: int, hold: float,
                src: int, dst: int, parent_span: Optional[Span]
                ) -> Generator[Event, None, None]:
        """Acquire the route, hold it, release it.  On an Interrupt
        every acquired (or still queued) request is released before the
        exception propagates, so a dying transfer never wedges a link."""
        work = self.env.work
        if not self.contention:
            yield self.env.sleep(hold)
            if work is not None:
                work.transfers_completed += 1
            return
        ordered = sorted(route, key=self._order.__getitem__)
        requests: List[Tuple[LinkId, Event]] = []
        occupancy: List[Span] = []
        queued_at = self.env.now
        try:
            for link_id in ordered:
                arrived = self.env.now
                request = self._links[link_id].resource.request()
                requests.append((link_id, request))
                yield request
                link_wait = self.env.now - arrived
                if link_wait > 0:
                    self._links[link_id].record_wait(link_wait)
            wait = self.env.now - queued_at
            if work is not None:
                work.link_acquisitions += len(ordered)
                if wait > 0:
                    work.transfers_stalled += 1
            metrics = self.metrics
            if metrics.enabled:
                metrics.counter("fabric.transfers").inc()
                metrics.histogram("fabric.transfer_bytes").observe(nbytes)
                if wait > 0:
                    metrics.counter("fabric.contention_stalls").inc()
                    metrics.histogram("fabric.wait_us").observe(wait)
            if wait > 0:
                self.tracer.emit(self.env.now, "link-contention", src,
                                 dst=dst, waited_us=wait, nbytes=nbytes)
            if self.tracer.enabled:
                occupancy = [
                    self.tracer.begin(self.env.now, f"link {link_id}",
                                      "link", node=src, parent=parent_span,
                                      dst=dst, nbytes=nbytes)
                    for link_id, _ in requests]
            yield self.env.sleep(hold)
        except Interrupt:
            for link_id, request in requests:
                self._links[link_id].resource.release(request)
            for span in occupancy:
                self.tracer.end(span, self.env.now)
            raise
        for link_id, request in requests:
            self._links[link_id].record(nbytes, busy_us=hold)
            self._links[link_id].resource.release(request)
        for span in occupancy:
            self.tracer.end(span, self.env.now)
        if work is not None:
            work.transfers_completed += 1

    def utilisation(self) -> Dict[LinkId, int]:
        """Bytes carried per link (only meaningful with contention on)."""
        return {link_id: link.bytes_carried
                for link_id, link in self._links.items()
                if link.transfers}


class _RouteChain:
    """One contended transfer, carried by callbacks instead of a process.

    The steps are those of :meth:`NetworkFabric._occupy`: request the
    links in canonical order, each grant advancing to the next link;
    hold the whole route for ``hold``; record and release every link.
    A link whose grant event would have been the next one popped is
    granted in place (:meth:`~repro.sim.Resource.try_grant`); the
    chain's callbacks are always the sole callback of their event,
    which that rule requires.  Any other link goes through
    :meth:`~repro.sim.Resource.request` and a grant callback, queueing
    in its FIFO like a process would.
    """

    __slots__ = ("fabric", "nbytes", "on_release", "links", "hold",
                 "requests", "queued_at", "asked_at")

    #: The engine profiler names a callback's site after its owner's
    #: ``name``: the chain's callbacks are fabric route work.
    name = "fabric.route"

    def __init__(self, fabric: NetworkFabric, src: int, dst: int,
                 nbytes: int, on_release: Callable[[float], None]):
        env = fabric.env
        work = env.work
        if work is not None:
            work.transfers_booked += 1
        self.fabric = fabric
        self.nbytes = nbytes
        self.on_release = on_release
        self.links = fabric._route_links(src, dst)
        self.hold = len(self.links) * fabric.params.hop_latency_us + \
            nbytes * fabric.params.us_per_byte
        self.requests: List[Request] = []
        self.queued_at = env._now
        start = Event(env)
        start._ok = True
        start.callbacks.append(self._acquire)
        env._schedule(start, env._now, URGENT)

    def _granted(self, _event: Event) -> None:
        link_wait = self.fabric.env._now - self.asked_at
        if link_wait > 0:
            self.links[len(self.requests) - 1].record_wait(link_wait)
        self._acquire(_event)

    def _acquire(self, _event: Event) -> None:
        """Take links until one must be waited for, then hold the route."""
        env = self.fabric.env
        links = self.links
        requests = self.requests
        while len(requests) < len(links):
            resource = links[len(requests)].resource
            request = resource.try_grant()
            if request is None:
                self.asked_at = env._now
                request = resource.request()
                requests.append(request)
                request.callbacks.append(self._granted)
                return
            requests.append(request)
        now = env._now
        work = env.work
        if work is not None:
            work.link_acquisitions += len(links)
            if now - self.queued_at > 0:
                work.transfers_stalled += 1
        held = Event(env)
        held._ok = True
        held.callbacks.append(self._release)
        env._schedule(held, now + self.hold, NORMAL)

    def _release(self, _event: Event) -> None:
        nbytes = self.nbytes
        hold = self.hold
        for link, request in zip(self.links, self.requests):
            link.record(nbytes, busy_us=hold)
            link.resource.release(request)
        env = self.fabric.env
        work = env.work
        if work is not None:
            work.transfers_completed += 1
        self.on_release(env._now)
