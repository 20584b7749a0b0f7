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
   matchable at the destination.  Without tracing or metrics, and
   without a fault that acts on a transfer in flight (link outages,
   degradations, NIC stalls), a message whose NIC engines are free is
   carried without wire processes (:meth:`Transport._wire_fast`): its
   route is booked analytically when every link is idle, or else
   acquired by the fabric's callback route chain
   (:meth:`~repro.network.NetworkFabric.chain_route`), which queues in
   the link FIFOs exactly as a process would.  A fault plan that only
   draws per-message fates (loss, corruption) or slows node software
   rides the same path, one attempt at a time, with the full path's
   ack/timeout/retransmit rules.  Every other message runs the attempt
   loop of :meth:`Transport._wire` — exactly one attempt without a
   fault plan, ack/timeout/retransmit rounds with one.
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


@dataclass
class PostedReceive:
    """Handle for a posted (possibly not yet matched) receive."""

    event: Event
    src: int
    tag: object
    was_unexpected: bool = False


class _Attempt:
    """One short-circuited wire attempt of a message under a fault plan:
    what settling it at the wire end, and retransmitting, need."""

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
        fast = mode is not TransferMode.HOST
        if not self._wire_fast(src, dst, nbytes, tag, op, fast):
            self.env.process(self._wire(src, dst, nbytes, tag, op,
                                        fast=fast, span=span,
                                        phase_span=parent_span),
                             name=f"wire-{src}-{dst}")

    # -- analytic short-circuit -------------------------------------------
    def _wire_fast(self, src: int, dst: int, nbytes: int, tag: object,
                   op: str, fast: bool, attempt: int = 0,
                   envelope: Optional[Envelope] = None) -> bool:
        """Try to carry one attempt of a message without wire processes.

        Eligibility is checked explicitly: no fault that acts on a
        transfer in flight
        (:attr:`~repro.faults.FaultPlan.has_inflight_faults`: outages,
        degradations and NIC stalls must see every hop simulated), the
        machine's ``fast_wire`` switch on, and tracing/metrics off
        (observability wants the real spans and gauges).  Even then
        both NIC engines must be timestamp-bookable: a busy one rolls
        the bookings back and returns ``False``, and the caller runs
        the attempt loop of :meth:`_wire` from this attempt on — the
        full path, kept as the reference the differential harness
        compares this one against.

        With the engines booked, the wire ends when the slowest of the
        three legs does — exactly when ``all_of`` over the full path's
        three concurrent leg processes would have fired.  When every
        route link is idle the route is booked too and the wire end is
        known now.  When a link is busy *at this instant*, the fabric's
        route chain (:meth:`~repro.network.NetworkFabric.chain_route`)
        acquires, holds and releases the route with callbacks and hands
        back the release time (:meth:`_wire_released`).  Either way two
        plain events replace the four processes and their resource
        protocol: a *wire-end* event and a *deliver* event after the
        kernel dispatch latency.  The wire end runs at once instead
        when the route's release is already the wire end.

        Without a fault plan the wire end lands the message, drawing
        the delivery jitter at the same simulated time as the full
        path.  Under a fate-only plan the attempt's fate is drawn once
        the engines are booked, and the wire end settles the attempt
        with the full path's own rules (:meth:`_settle_attempt`): a
        delivered attempt lands, a failed one retransmits once its
        timeout has run out, re-entering this method with the next
        attempt index.
        """
        machine = self.machine
        injector = machine.injector
        if not machine.fast_wire or machine.tracer.enabled or \
                machine.metrics.enabled or (
                    injector is not None and
                    injector.plan.has_inflight_faults):
            return False
        env = self.env
        src_node = machine.nodes[src]
        dst_node = machine.nodes[dst]
        # The transmit and receive engines are booked first: the leg
        # processes of the full path occupy them from this instant
        # independently of the fabric, and — on the SP2, whose
        # half-duplex adapter shares one engine — transmit before
        # receive, the full path's leg spawn order.  The engines and
        # the route links are disjoint resources, so booking both
        # engines before trying the route preserves every per-resource
        # FIFO order.
        tx = src_node.nic.try_book_transmit(nbytes, fast=fast)
        if tx is None:
            return False
        fast_rx = dst_node.payload_mode(self.spec.uses_dma_for(op),
                                        nbytes) is not TransferMode.HOST
        rx = dst_node.nic.try_book_receive(nbytes, fast=fast_rx)
        if rx is None:
            tx[1].undo_occupy(tx[2])
            return False
        src_node.nic.commit_transmit()
        dst_node.nic.commit_receive()
        work = env.work
        if work is not None:
            work.resource_occupancies += 2  # the two engine bookings
        now = env._now
        if envelope is None:
            envelope = Envelope(src=src, dst=dst, tag=tag, nbytes=nbytes,
                                sent_at=now)
        ending: Union[Envelope, _Attempt] = envelope
        if injector is not None:
            ending = _Attempt(envelope, op, fast, attempt, now,
                              injector.message_fate(src, dst))
        engines_end = tx[0] if tx[0] > rx[0] else rx[0]
        fabric = machine.fabric
        routed = fabric.try_book_route(src, dst, nbytes)
        if routed is None:
            # Route contended: the engine bookings stand (the full
            # path's engine legs run concurrently with the fabric leg
            # anyway) and the route chain queues in the link FIFOs like
            # any other transfer.
            fabric.chain_route(src, dst, nbytes, partial(
                self._wire_released, ending, engines_end))
            return True
        hold, bookings = routed
        fabric.commit_route(bookings, nbytes, hold)
        wire_end = now + hold
        if engines_end > wire_end:
            wire_end = engines_end
        self._schedule_call(ending, wire_end, self._wire_fast_ended)
        return True

    def _wire_released(self, ending: Union[Envelope, _Attempt],
                       engines_end: float, release: float) -> None:
        """The route chain released the route: the wire ends at the
        later of the release and the engine legs' ends."""
        if engines_end > release:
            self._schedule_call(ending, engines_end, self._wire_fast_ended)
        elif ending.__class__ is Envelope:
            self._land(ending)
        else:
            self._settle_fast(ending)

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

    def _wire_fast_ended(self, event: Event) -> None:
        """A short-circuited wire ended: land the message, or settle
        the attempt when a fault plan drew its fate."""
        ending = event._value
        if ending.__class__ is Envelope:
            self._land(ending)
        else:
            self._settle_fast(ending)

    def _settle_fast(self, attempt: _Attempt) -> None:
        """Land a delivered attempt, or retransmit once its timeout has
        run out (at once when the wire already outlasted it)."""
        wait = self._settle_attempt(attempt.envelope, attempt.number,
                                    attempt.started, attempt.fate)
        if wait is None:
            self._land(attempt.envelope)
        elif wait > 0:
            # No ack will come: sit out the rest of the timeout.
            self._schedule_call(attempt, self.env._now + wait,
                                self._wire_fast_timed_out)
        else:
            self._retransmit_fast(attempt)

    def _wire_fast_timed_out(self, event: Event) -> None:
        self._retransmit_fast(event._value)

    def _retransmit_fast(self, failed: _Attempt) -> None:
        """Send the attempt after ``failed``, on the short-circuit when
        its engines are free and through :meth:`_wire` otherwise."""
        envelope = failed.envelope
        self._retransmit_or_fail(envelope, failed.number)
        attempt = failed.number + 1
        src, dst = envelope.src, envelope.dst
        if not self._wire_fast(src, dst, envelope.nbytes, envelope.tag,
                               failed.op, failed.fast, attempt,
                               envelope):
            self.env.process(self._wire(src, dst, envelope.nbytes,
                                        envelope.tag, failed.op,
                                        fast=failed.fast,
                                        attempt=attempt,
                                        envelope=envelope),
                             name=f"wire-{src}-{dst}")

    def _land(self, envelope: Envelope) -> None:
        """The message's tail has left the network: draw the delivery
        jitter (at the same simulated time the full path draws it) and
        schedule the actual delivery."""
        env = self.env
        deliver = Event(env)
        deliver._ok = True
        deliver._value = envelope
        deliver.callbacks.append(self._deliver_fast)
        delay = self.spec.software.deliver_us * \
            self.machine.jitter(envelope.dst)
        env._schedule(deliver, env._now + delay, NORMAL)

    def _deliver_fast(self, event: Event) -> None:
        envelope = event._value
        envelope.delivered_at = self.env._now
        self._deliver(envelope)

    # -- full path ----------------------------------------------------------
    def _wire(self, src: int, dst: int, nbytes: int, tag: object,
              op: str, fast: bool, span: Optional[Span] = None,
              phase_span: Optional[Span] = None, attempt: int = 0,
              envelope: Optional[Envelope] = None
              ) -> Generator[Event, None, None]:
        """The full wire pipeline: the attempt loop for every message
        (or retransmission) :meth:`_wire_fast` did not take.

        Each attempt runs the three legs concurrently — transmit
        engine, fabric transfer (the ``carry`` process), receive
        engine — because they stream the same bytes cut-through: the
        message is in the destination's buffer once the slowest leg
        finishes.  Each engine is still a FIFO resource, so
        back-to-back messages through one NIC or link serialize.

        Without a fault injector there is exactly one attempt and it
        always succeeds.  With one, every attempt draws a fate from the
        plan's seeded stream first; a lost, corrupted, or aborted
        attempt delivers nothing, and the sender learns of the failure
        only when the attempt's retransmission timeout expires, then
        retransmits — possibly over a detour if a link died meanwhile
        (:meth:`_settle_attempt` and :meth:`_retransmit_or_fail` hold
        the rules).  ``attempt`` and ``envelope`` continue a message
        whose earlier attempts the short-circuit carried.
        """
        env = self.env
        if envelope is None:
            envelope = Envelope(src=src, dst=dst, tag=tag, nbytes=nbytes,
                                sent_at=env.now, span=span)
        machine = self.machine
        injector = machine.injector
        src_nic = machine.nodes[src].nic
        dst_nic = machine.nodes[dst].nic
        # The destination drains at DMA speed when its policy offloads
        # this collective's payloads (e.g. the Paragon coprocessor).
        fast_rx = machine.nodes[dst].payload_mode(
            self.spec.uses_dma_for(op), nbytes) is not TransferMode.HOST
        while True:
            started = env.now
            fate = "ok" if injector is None else \
                injector.message_fate(src, dst)
            aborted: List[TransferAborted] = []
            legs = [
                env.process(src_nic.transmit(nbytes, fast=fast)),
                env.process(self._carry(src, dst, nbytes, span, aborted),
                            name=f"carry-{src}-{dst}"),
                env.process(dst_nic.receive(nbytes, fast=fast_rx)),
            ]
            yield env.all_of(legs)
            if injector is None:
                break
            if aborted:
                fate = "aborted"
            wait = self._settle_attempt(envelope, attempt, started, fate)
            if wait is None:
                break
            # Failed attempt: the fate is only known now, so the
            # recovery span is opened retroactively over the wasted
            # wire time (the tracer accepts past start times).
            tracer = machine.tracer
            if tracer.enabled:
                doomed = tracer.begin(started, f"retransmit {src}->{dst}",
                                      "retransmit", node=src, parent=span,
                                      dst=dst, attempt=attempt,
                                      reason=fate)
                tracer.end(doomed, env.now)
            # No ack will come, so the sender sits out the rest of the
            # RTO before trying again.
            if wait > 0:
                if tracer.enabled:
                    sitout = tracer.begin(
                        env.now, f"backoff {src}->{dst}", "backoff",
                        node=src, parent=span, dst=dst, attempt=attempt,
                        rto_us=injector.plan.retry.timeout_for_attempt(
                            attempt))
                    yield env.sleep(wait)
                    tracer.end(sitout, env.now)
                else:
                    yield env.sleep(wait)
            self._retransmit_or_fail(envelope, attempt)
            attempt += 1
        yield env.sleep(
            self.spec.software.deliver_us * machine.jitter(dst))
        envelope.delivered_at = env.now
        tracer = machine.tracer
        if span is not None:
            tracer.end(span, env.now)
        if phase_span is not None:
            # The phase lasts until its last member message lands.
            tracer.extend(phase_span, env.now)
        self._deliver(envelope)

    # -- recovery protocol (both paths) ---------------------------------------
    def _settle_attempt(self, envelope: Envelope, attempt: int,
                        started: float, fate: str) -> Optional[float]:
        """Judge a finished attempt under a fault plan.

        Returns ``None`` when ``fate`` is ``"ok"`` (delivered); if wire
        plus ack return exceeded the RTO, the real protocol would have
        retransmitted needlessly, which is counted but not re-run.
        Otherwise returns how long the sender still waits for the
        attempt's timeout (exponential backoff, bounded) before it
        retransmits; zero or less means at once.
        """
        injector = self.machine.injector
        retry = injector.plan.retry
        rto = retry.timeout_for_attempt(attempt)
        wire_us = self.env._now - started
        if fate == "ok":
            ack_us = self.machine.fabric.transfer_time(
                envelope.dst, envelope.src, retry.ack_bytes)
            if wire_us + ack_us > rto:
                injector.record_spurious_retransmit()
            return None
        return rto - wire_us

    def _retransmit_or_fail(self, envelope: Envelope, attempt: int) -> None:
        """The timeout of failed ``attempt`` ran out: count the
        retransmission, or raise :class:`DeliveryError` once
        ``max_retries`` retransmissions are spent."""
        injector = self.machine.injector
        if attempt >= injector.plan.retry.max_retries:
            raise DeliveryError(envelope.src, envelope.dst, envelope.tag,
                                attempt + 1)
        injector.record_retransmit()
        work = self.env.work
        if work is not None:
            work.retransmissions += 1

    def _carry(self, src: int, dst: int, nbytes: int,
               span: Optional[Span], aborted: List[TransferAborted]
               ) -> Generator[Event, None, None]:
        """The fabric leg of one attempt; an abort (only a fault plan
        can cause one) is recorded for the attempt loop, not raised."""
        try:
            yield from self.machine.fabric.transfer(src, dst, nbytes,
                                                    parent_span=span)
        except TransferAborted as failure:
            aborted.append(failure)

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
