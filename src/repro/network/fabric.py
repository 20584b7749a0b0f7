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

One wire, no processes: :meth:`NetworkFabric.carry` takes every
transfer.  A route whose links are all idle at issue is booked with
timestamps, so its release time is known at once.  Any other route — a
link is busy, or a planned outage can kill a link of it mid-flight — is
carried by a route chain, callbacks that acquire the links in
canonical order (granting each in place with
:meth:`~repro.sim.Resource.try_grant` when its grant event would have
been the next one popped, else through the request/grant protocol),
hold them and release them.  The chain's events sit where a process
acquiring the route would schedule its own, minus the skipped grants,
so times and FIFO orders are a process's.

Faults act on the transfer where it happens: the route detours around
dead links at issue (an unroutable transfer raises
:class:`TransferAborted` at once), a degradation active at issue
stretches the hold, and an outage aborts the chains that cross its
link (the injector calls :meth:`_RouteChain.abort`).

Observability: every link accumulates busy/wait time (see
:class:`~repro.network.link.Link`); the booking and the chain open
``link``-category occupancy spans (under a ``reroute`` span for a
detour) nested in the message span, emit a ``link-contention`` record
for a transfer that waited, and feed transfer/stall counters and
wait/size histograms to the machine's metrics registry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..sim import Environment, Event, Request, Span, Tracer
from ..sim.engine import NORMAL, URGENT
from .link import Link, LinkParameters
from .topology import LinkId, Topology

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
        """The route a transfer issued now takes under a fault plan,
        detouring around any dead links, plus whether it is a detour.
        Raises :class:`TransferAborted` when the live links no longer
        connect the pair."""
        injector = self.injector
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

    # -- carrying transfers -------------------------------------------------
    def carry(self, src: int, dst: int, nbytes: int,
              on_release: Callable[[float, bool], None],
              parent_span: Optional[Span] = None) -> Optional[float]:
        """Carry one ``src`` -> ``dst`` transfer issued now.

        The route is chosen now (:meth:`_select_route`: around dead
        links, raising :class:`TransferAborted` when none is left) and
        held for ``hops * hop_latency + nbytes * us_per_byte``, the
        per-byte term stretched by the route's worst degradation active
        now.  When every route link is idle now, the whole route is
        booked with timestamps and the time the message's tail leaves
        the network is returned.  Otherwise — a link is busy, or the
        route crosses a link a planned outage can kill mid-flight — a
        route chain (:class:`_RouteChain`) acquires, holds and releases
        the links with callbacks and ends by calling
        ``on_release(release_time, aborted)``; this returns ``None``.
        ``parent_span`` (the message span) is the parent of the link
        and reroute spans.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        env = self.env
        now = env._now
        injector = self.injector
        detoured = False
        factor = 1.0
        abortable = False
        if injector is None or not injector.acts_on_links:
            links = self._route_links(src, dst)
        else:
            route, detoured = self._select_route(src, dst)
            if detoured:
                links = [self._links[link_id] for link_id in sorted(
                    route, key=self._order.__getitem__)]
            else:
                links = self._route_links(src, dst)
            factor = injector.route_degrade_factor(route, now)
            abortable = injector.watches(route)
        work = env.work
        if work is not None:
            work.transfers_booked += 1
            if detoured:
                work.transfers_rerouted += 1
        if not links:
            if work is not None:
                work.transfers_completed += 1
                work.transfers_shortcircuited += 1
            return now
        hold = len(links) * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte * factor
        tracer = self.tracer
        detour_span: Optional[Span] = None
        if detoured and tracer.enabled:
            # A detour is fault-recovery work: its link occupancy nests
            # in a dedicated span so the extra hops are attributable.
            detour_span = tracer.begin(
                now, f"reroute {src}->{dst}", "reroute", node=src,
                parent=parent_span, dst=dst, nbytes=nbytes,
                hops=len(links))
            parent_span = detour_span
        if not self.contention:
            links = []
        if abortable or not self._book_route(links, hold):
            _RouteChain(self, src, dst, nbytes, links, hold,
                        route if abortable else None, parent_span,
                        detour_span, on_release)
            return None
        release = now + hold
        if work is not None:
            work.resource_occupancies += len(links)
            work.transfers_completed += 1
            work.transfers_shortcircuited += 1
        if links:
            for link in links:
                link.record(nbytes, busy_us=hold)
            for span in self._acquired(src, dst, nbytes, links, 0.0,
                                       parent_span):
                tracer.end(span, release)
        if detour_span is not None:
            tracer.end(detour_span, release)
        return release

    def _book_route(self, links: List[Link], hold: float) -> bool:
        """Book every link for ``hold`` from now, or none of them:
        ``False`` when one is held, queued for, or booked past now."""
        now = self.env._now
        booked: List[Tuple[Link, float]] = []
        for link in links:
            booking = link.resource.try_occupy(hold)
            if booking is None or booking[0] != now:
                if booking is not None:
                    link.resource.undo_occupy(booking[1])
                for done, previous in reversed(booked):
                    done.resource.undo_occupy(previous)
                return False
            booked.append((link, booking[1]))
        return True

    def _acquired(self, src: int, dst: int, nbytes: int, links: List[Link],
                  wait: float, parent_span: Optional[Span]) -> List[Span]:
        """A transfer holds its whole route from now on, after waiting
        ``wait`` for it: count the acquisition, feed the metrics and the
        contention record, and open one span per link."""
        work = self.env.work
        if work is not None:
            work.link_acquisitions += len(links)
            if wait > 0:
                work.transfers_stalled += 1
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("fabric.transfers").inc()
            metrics.histogram("fabric.transfer_bytes").observe(nbytes)
            if wait > 0:
                metrics.counter("fabric.contention_stalls").inc()
                metrics.histogram("fabric.wait_us").observe(wait)
        tracer = self.tracer
        if not tracer.enabled:
            return []
        now = self.env._now
        if wait > 0:
            tracer.emit(now, "link-contention", src, dst=dst,
                        waited_us=wait, nbytes=nbytes)
        return [tracer.begin(now, f"link {link.link_id}", "link", node=src,
                             parent=parent_span, dst=dst, nbytes=nbytes)
                for link in links]

    def utilisation(self) -> Dict[LinkId, int]:
        """Bytes carried per link (only meaningful with contention on)."""
        return {link_id: link.bytes_carried
                for link_id, link in self._links.items()
                if link.transfers}


class _RouteChain:
    """One transfer carried by callbacks instead of a process.

    It requests the route's links in canonical order, each grant
    advancing to the next link; holds the whole route for ``hold``;
    then records and releases every link.  A link whose grant event
    would have been the next one popped is granted in place
    (:meth:`~repro.sim.Resource.try_grant`); the chain's callbacks are
    always the sole callback of their event, which that rule requires.
    Any other link goes through :meth:`~repro.sim.Resource.request` and
    a grant callback, queueing in its FIFO.  The chain starts from one
    event at ``(now, URGENT)``, so its events sit where a process's
    would, minus the skipped grants.

    A chain whose route crosses a link a planned outage can kill
    (``route`` given) is registered with the fault injector while it is
    in flight; when the link dies the injector calls :meth:`abort`, and
    the chain releases its held and queued links and ends aborted.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "links", "hold",
                 "route", "span", "detour_span", "on_release", "requests",
                 "queued_at", "asked_at", "link_spans", "done")

    #: The engine profiler names a callback's site after its owner's
    #: ``name``: the chain's callbacks are fabric route work.
    name = "fabric.route"

    def __init__(self, fabric: NetworkFabric, src: int, dst: int,
                 nbytes: int, links: List[Link], hold: float,
                 route: Optional[List[LinkId]], span: Optional[Span],
                 detour_span: Optional[Span],
                 on_release: Callable[[float, bool], None]):
        env = fabric.env
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.links = links
        self.hold = hold
        self.route = route
        self.span = span
        self.detour_span = detour_span
        self.on_release = on_release
        self.requests: List[Request] = []
        self.link_spans: List[Span] = []
        self.done = False
        self.queued_at = env._now
        if route is not None:
            fabric.injector.begin_transfer(self, route)
        self._schedule(env._now, URGENT, self._acquire)

    def _schedule(self, at: float, priority: int,
                  callback: Callable[[Event], None]) -> None:
        env = self.fabric.env
        event = Event(env)
        event._ok = True
        event.callbacks.append(callback)
        env._schedule(event, at, priority)

    def _granted(self, _event: Event) -> None:
        if self.done:
            return
        link_wait = self.fabric.env._now - self.asked_at
        if link_wait > 0:
            self.links[len(self.requests) - 1].record_wait(link_wait)
        self._acquire(_event)

    def _acquire(self, _event: Event) -> None:
        """Take links until one must be waited for, then hold the route."""
        if self.done:
            return
        fabric = self.fabric
        env = fabric.env
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
        if links:
            self.link_spans = fabric._acquired(
                self.src, self.dst, self.nbytes, links,
                now - self.queued_at, self.span)
        self._schedule(now + self.hold, NORMAL, self._release)

    def _release(self, _event: Event) -> None:
        if self.done:
            return
        nbytes = self.nbytes
        hold = self.hold
        for link, request in zip(self.links, self.requests):
            link.record(nbytes, busy_us=hold)
            link.resource.release(request)
        work = self.fabric.env.work
        if work is not None:
            work.transfers_completed += 1
        self._end(False)

    def abort(self) -> None:
        """A link of the route died: abort at the current instant, in
        one event of its own at ``(now, URGENT)``."""
        self._schedule(self.fabric.env._now, URGENT, self._aborted)

    def _aborted(self, _event: Event) -> None:
        if self.done:
            return
        for link, request in zip(self.links, self.requests):
            link.resource.release(request)
        fabric = self.fabric
        fabric.injector.record_abort()
        work = fabric.env.work
        if work is not None:
            work.transfers_aborted += 1
        self._end(True)

    def _end(self, aborted: bool) -> None:
        """Close the spans, leave the injector, report the release."""
        self.done = True
        fabric = self.fabric
        now = fabric.env._now
        tracer = fabric.tracer
        for span in self.link_spans:
            tracer.end(span, now)
        if self.detour_span is not None:
            tracer.end(self.detour_span, now)
        if self.route is not None:
            fabric.injector.end_transfer(self)
        self.on_release(now, aborted)
