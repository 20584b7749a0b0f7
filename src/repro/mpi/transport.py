"""Point-to-point message transport over the simulated hardware.

The transport turns an abstract ``send(src, dst, nbytes, tag)`` into the
machine's hardware pipeline:

1. **Issue** — the sending CPU pays the kernel's per-send cost (plus
   buffer-management cost for bidirectional/buffered traffic).
2. **Payload move** — the payload is copied through the host memory bus
   (``HOST`` mode) or streamed by a DMA engine (``BLT``/``COPROC``),
   depending on machine policy for the enclosing collective.
3. **Wire** — asynchronously, the NIC transmit engine and the network
   fabric carry the message (concurrently — the adapter streams into
   the fabric), then the destination NIC's receive engine ejects it,
   and after the kernel's dispatch latency the message becomes
   matchable at the destination.  No process carries it
   (:meth:`Transport._wire`): both NIC engines are booked with
   timestamps, and the fabric books the route analytically when every
   link is idle, or else acquires it with a callback route chain
   (:meth:`~repro.network.NetworkFabric.carry`) that queues in the link
   FIFOs.  Under a fault plan each attempt draws its fate, and a
   failed attempt (lost, corrupted, or aborted by a dead link) is
   retransmitted after its timeout by the ack/timeout/retransmit rules
   of :meth:`Transport._settle`.  Tracing and metrics observe
   the same path: the spans and gauges are emitted from the bookings
   and the chain.
4. **Match** — a posted receive matching ``(src, tag)`` completes;
   otherwise the message joins the unexpected queue and its receiver
   will later pay the unexpected-handling cost plus a copy out of the
   system buffer.

The sender is only blocked for steps 1-2, which is what lets a scatter
root pipeline successive sends at its marginal per-message cost — the
effect behind the O(p) startup terms of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, List, Optional, Union

from ..machines import Machine
from ..network import TransferAborted
from ..node import TransferMode
from ..sim import Event, Span
from ..sim.engine import NORMAL
from .errors import DeliveryError, RankError, TruncationError

__all__ = ["Envelope", "PostedReceive", "Transport"]


@dataclass
class Envelope:
    """Metadata of one in-flight or delivered message."""

    src: int
    dst: int
    tag: object
    nbytes: int
    sent_at: float
    delivered_at: Optional[float] = None
    span: Optional[Span] = None
    #: The collective phase span the message belongs to (tracing only).
    phase_span: Optional[Span] = None


@dataclass
class PostedReceive:
    """Handle for a posted (possibly not yet matched) receive."""

    event: Event
    src: int
    tag: object
    was_unexpected: bool = False


class _Attempt:
    """One wire attempt of a message under a fault plan: what settling
    it at the wire end, and retransmitting, need."""

    __slots__ = ("envelope", "op", "fast", "number", "started", "fate")

    def __init__(self, envelope: Envelope, op: str, fast: bool,
                 number: int, started: float, fate: str):
        self.envelope = envelope
        self.op = op
        self.fast = fast
        self.number = number
        self.started = started
        self.fate = fate


class Transport:
    """Message matching and hardware pipelines for one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.env = machine.env
        self.spec = machine.spec
        self._posted: List[List[PostedReceive]] = \
            [[] for _ in range(machine.num_nodes)]
        self._unexpected: List[List[Envelope]] = \
            [[] for _ in range(machine.num_nodes)]
        self.messages_delivered = 0
        self.unexpected_arrivals = 0

    # -- validation -------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.machine.num_nodes:
            raise RankError(rank, self.machine.num_nodes)

    # -- send side ----------------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int, tag: object,
             op: str = "ptp", buffered: bool = False,
             sw_cost_us: Optional[float] = None,
             parent_span: Optional[Span] = None
             ) -> Generator[Event, None, None]:
        """Process generator: issue one message from ``src`` to ``dst``.

        Blocks the caller for the local (CPU + payload move) costs only;
        the wire part proceeds asynchronously.  ``sw_cost_us`` overrides
        the kernel software cost for offloaded paths (the payload move
        is then skipped too — the offload engine's cost is included in
        the override).  ``parent_span`` (normally the collective phase
        span) becomes the parent of this message's trace span.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        work = self.env.work
        if work is not None:
            work.messages_sent += 1
        tracer = self.machine.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(self.env.now, f"msg {src}->{dst}",
                                "message", node=src, parent=parent_span,
                                dst=dst, nbytes=nbytes, op=op)
        metrics = self.machine.metrics
        if metrics.enabled:
            metrics.counter("mpi.messages_sent").inc()
            metrics.histogram("mpi.message_bytes").observe(nbytes)
        software = self.spec.software
        node = self.machine.nodes[src]
        mode = node.payload_mode(self.spec.uses_dma_for(op), nbytes)
        if sw_cost_us is not None:
            yield self.env.sleep(sw_cost_us * self.machine.jitter(src))
        else:
            cost = software.send_msg_us
            if buffered:
                cost += software.buffered_msg_us
            yield self.env.sleep(cost * self.machine.jitter(src))
            if nbytes > 0:
                if mode is TransferMode.HOST:
                    # An unbuffered send streams straight from the user
                    # buffer (eager/rendezvous direct path); a buffered
                    # (bidirectional-traffic) send stages through system
                    # buffers — in and back out — on the memory bus.
                    if buffered:
                        yield from node.memory.copy(2 * nbytes)
                else:
                    assert node.dma is not None
                    yield from node.dma.stream(nbytes)
        envelope = Envelope(src=src, dst=dst, tag=tag, nbytes=nbytes,
                            sent_at=self.env._now, span=span,
                            phase_span=parent_span)
        self._wire(envelope, op, mode is not TransferMode.HOST)

    # -- the wire ------------------------------------------------------------
    def _wire(self, envelope: Envelope, op: str, fast: bool,
              attempt: int = 0) -> None:
        """Carry attempt number ``attempt`` of a message, without
        processes.

        The transmit and receive engines are booked first — transmit
        before receive, which on the SP2's half-duplex adapter is one
        engine — and the fabric then carries the route
        (:meth:`~repro.network.NetworkFabric.carry`).  Engines and links
        are disjoint resources, so booking the engines first keeps
        every per-resource FIFO order.  The wire ends when the slowest
        of the three legs does: when the route was booked outright the
        end is known now, else the route chain reports its release
        (:meth:`_wire_released`).  One plain *wire-end* event, and a
        *deliver* event after the kernel dispatch latency, then carry
        the message on.

        Without a fault plan the wire end lands the message.  With one,
        the attempt's fate is drawn once its engines are booked, and
        the wire end settles the attempt (:meth:`_settle`): a
        delivered attempt lands; a lost, corrupted or aborted one (its
        route found no live path, or an outage killed a link under it)
        retransmits once its timeout has run out, re-entering this
        method with the next attempt index.
        """
        machine = self.machine
        env = self.env
        src, dst, nbytes = envelope.src, envelope.dst, envelope.nbytes
        engines_end = machine.nodes[src].nic.book_transmit(nbytes, fast=fast)
        # The destination drains at DMA speed when its policy offloads
        # this collective's payloads (e.g. the Paragon coprocessor).
        dst_node = machine.nodes[dst]
        fast_rx = dst_node.payload_mode(self.spec.uses_dma_for(op),
                                        nbytes) is not TransferMode.HOST
        rx_end = dst_node.nic.book_receive(nbytes, fast=fast_rx)
        if rx_end > engines_end:
            engines_end = rx_end
        work = env.work
        if work is not None:
            work.resource_occupancies += 2  # the two engine bookings
        ending: Union[Envelope, _Attempt] = envelope
        injector = machine.injector
        if injector is not None:
            ending = _Attempt(envelope, op, fast, attempt, env._now,
                              injector.message_fate(src, dst))
        try:
            release = machine.fabric.carry(
                src, dst, nbytes,
                partial(self._wire_released, ending, engines_end),
                parent_span=envelope.span)
        except TransferAborted:
            # No live route: the attempt dies at once, its engine
            # bookings stand.
            ending.fate = "aborted"
            release = env._now
        if release is None:
            return  # a route chain reports the release
        if engines_end > release:
            release = engines_end
        self._schedule_call(ending, release, self._wire_ended)

    def _wire_released(self, ending: Union[Envelope, _Attempt],
                       engines_end: float, release: float,
                       aborted: bool) -> None:
        """A route chain released (or an outage aborted) the route: the
        wire ends at the later of that and the engine legs' ends."""
        if aborted:
            ending.fate = "aborted"
        if engines_end > release:
            self._schedule_call(ending, engines_end, self._wire_ended)
        elif ending.__class__ is Envelope:
            self._land(ending)
        else:
            self._settle(ending)

    def _schedule_call(self, value: object, at: float,
                       callback: Callable[[Event], None]) -> None:
        """One plain event at ``at`` that hands ``value`` to
        ``callback`` (a bound method, so the engine profiler books it
        to this class)."""
        event = Event(self.env)
        event._ok = True
        event._value = value
        event.callbacks.append(callback)
        self.env._schedule(event, at, NORMAL)

    def _wire_ended(self, event: Event) -> None:
        """The wire ended: land the message, or settle the attempt when
        a fault plan drew its fate."""
        ending = event._value
        if ending.__class__ is Envelope:
            self._land(ending)
        else:
            self._settle(ending)

    def _settle(self, attempt: _Attempt) -> None:
        """Judge a finished attempt under a fault plan.

        A delivered attempt lands; if its wire time plus the ack's
        return exceeded the RTO, the real protocol would have
        retransmitted needlessly, which is counted but not re-run.  A
        failed one retransmits once the rest of its timeout (exponential
        backoff, bounded) has run out — at once when the wire already
        outlasted it.
        """
        injector = self.machine.injector
        retry = injector.plan.retry
        rto = retry.timeout_for_attempt(attempt.number)
        envelope = attempt.envelope
        wire_us = self.env._now - attempt.started
        if attempt.fate == "ok":
            ack_us = self.machine.fabric.transfer_time(
                envelope.dst, envelope.src, retry.ack_bytes)
            if wire_us + ack_us > rto:
                injector.record_spurious_retransmit()
            self._land(envelope)
            return
        wait = rto - wire_us
        if self.machine.tracer.enabled:
            self._trace_failed(attempt, rto, wait)
        if wait > 0:
            # No ack will come: sit out the rest of the timeout.
            self._schedule_call(attempt, self.env._now + wait,
                                self._wire_timed_out)
        else:
            self._retransmit(attempt)

    def _trace_failed(self, attempt: _Attempt, rto: float,
                      wait: float) -> None:
        """Spans of a failed attempt, opened now that its fate is known:
        the wasted wire time, then the sit-out of its timeout."""
        tracer = self.machine.tracer
        envelope = attempt.envelope
        src, dst = envelope.src, envelope.dst
        now = self.env._now
        doomed = tracer.begin(attempt.started, f"retransmit {src}->{dst}",
                              "retransmit", node=src, parent=envelope.span,
                              dst=dst, attempt=attempt.number,
                              reason=attempt.fate)
        tracer.end(doomed, now)
        if wait > 0:
            sitout = tracer.begin(now, f"backoff {src}->{dst}", "backoff",
                                  node=src, parent=envelope.span, dst=dst,
                                  attempt=attempt.number, rto_us=rto)
            tracer.end(sitout, now + wait)

    def _wire_timed_out(self, event: Event) -> None:
        self._retransmit(event._value)

    def _retransmit(self, failed: _Attempt) -> None:
        """The timeout of ``failed`` ran out: send the next attempt, or
        raise :class:`DeliveryError` once ``max_retries``
        retransmissions are spent."""
        envelope = failed.envelope
        injector = self.machine.injector
        if failed.number >= injector.plan.retry.max_retries:
            raise DeliveryError(envelope.src, envelope.dst, envelope.tag,
                                failed.number + 1)
        injector.record_retransmit()
        work = self.env.work
        if work is not None:
            work.retransmissions += 1
        self._wire(envelope, failed.op, failed.fast, failed.number + 1)

    def _land(self, envelope: Envelope) -> None:
        """The message's tail has left the network: draw the delivery
        jitter and schedule the actual delivery."""
        delay = self.spec.software.deliver_us * \
            self.machine.jitter(envelope.dst)
        self._schedule_call(envelope, self.env._now + delay,
                            self._delivered)

    def _delivered(self, event: Event) -> None:
        envelope = event._value
        now = self.env._now
        envelope.delivered_at = now
        if envelope.span is not None:
            tracer = self.machine.tracer
            tracer.end(envelope.span, now)
            if envelope.phase_span is not None:
                # The phase lasts until its last member message lands.
                tracer.extend(envelope.phase_span, now)
        self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        profiler = self.env.profiler
        if profiler is None:
            self._deliver_now(envelope)
            return
        profiler.enter("transport.deliver")
        try:
            self._deliver_now(envelope)
        finally:
            profiler.leave()

    def _deliver_now(self, envelope: Envelope) -> None:
        work = self.env.work
        if work is not None:
            work.messages_delivered += 1
        metrics = self.machine.metrics
        if metrics.enabled:
            metrics.counter("mpi.messages_delivered").inc()
            metrics.histogram("mpi.delivery_latency_us").observe(
                self.env.now - envelope.sent_at)
        posted = self._posted[envelope.dst]
        for index, receive in enumerate(posted):
            if receive.src == envelope.src and receive.tag == envelope.tag:
                del posted[index]
                receive.was_unexpected = False
                receive.event.succeed(envelope)
                self.messages_delivered += 1
                return
        self._unexpected[envelope.dst].append(envelope)
        self.unexpected_arrivals += 1
        if metrics.enabled:
            metrics.counter("mpi.unexpected_arrivals").inc()
        self.machine.tracer.emit(self.env.now, "unexpected-message",
                                 envelope.dst, src=envelope.src,
                                 tag=envelope.tag)

    # -- receive side ---------------------------------------------------------
    def post_receive(self, rank: int, src: int,
                     tag: object) -> PostedReceive:
        """Post a receive for ``(src, tag)``; returns a waitable handle."""
        self._check_rank(rank)
        self._check_rank(src)
        unexpected = self._unexpected[rank]
        for index, envelope in enumerate(unexpected):
            if envelope.src == src and envelope.tag == tag:
                del unexpected[index]
                receive = PostedReceive(self.env.event(), src, tag,
                                        was_unexpected=True)
                receive.event.succeed(envelope)
                self.messages_delivered += 1
                return receive
        receive = PostedReceive(self.env.event(), src, tag)
        self._posted[rank].append(receive)
        return receive

    def complete_receive(self, rank: int, receive: PostedReceive,
                         op: str = "ptp", buffered: bool = False,
                         sw_cost_us: Optional[float] = None,
                         expected_nbytes: Optional[int] = None
                         ) -> Generator[Event, None, Envelope]:
        """Process generator: wait for and retire a posted receive.

        ``expected_nbytes`` is the receive buffer size: a matched
        message larger than it raises :class:`TruncationError`, MPI's
        ``MPI_ERR_TRUNCATE`` (``None`` skips the check — the buffer is
        assumed to fit, as inside collectives).
        """
        envelope = yield receive.event
        if expected_nbytes is not None and \
                envelope.nbytes > expected_nbytes:
            raise TruncationError(expected_nbytes, envelope.nbytes,
                                  envelope.src, rank)
        software = self.spec.software
        node = self.machine.nodes[rank]
        if sw_cost_us is not None:
            yield self.env.sleep(sw_cost_us * self.machine.jitter(rank))
            return envelope
        cost = software.recv_msg_us
        if buffered:
            cost += software.buffered_msg_us
        if receive.was_unexpected:
            cost += software.unexpected_us
        yield self.env.sleep(cost * self.machine.jitter(rank))
        if envelope.nbytes > 0:
            # Eager protocol: a message that found its receive posted
            # was deposited straight into the user buffer; an
            # unexpected one landed in a system buffer and the host
            # copies it out.  Buffered (bidirectional) traffic always
            # stages through system buffers, in and out.  DMA-offloaded
            # collectives place data directly in every case.
            mode = node.payload_mode(self.spec.uses_dma_for(op),
                                     envelope.nbytes)
            if mode is TransferMode.HOST:
                copies = 0
                if buffered:
                    copies = 2
                elif receive.was_unexpected:
                    copies = 1
                if copies:
                    yield from node.memory.copy(copies * envelope.nbytes)
        return envelope

    # -- introspection ---------------------------------------------------------
    def pending_unexpected(self, rank: int) -> int:
        """Messages waiting unmatched at ``rank`` (test/diagnostic aid)."""
        return len(self._unexpected[rank])

    def pending_posted(self, rank: int) -> int:
        """Receives posted but unmatched at ``rank``."""
        return len(self._posted[rank])
