"""Network interface model.

A NIC has a transmit engine and a receive engine, each a capacity-1
resource with a per-message cost and a serialization bandwidth.  The
SP2's communication adapter is modelled *half duplex*: one engine is
shared between transmit and receive, which is part of why the SP2
struggles with the bidirectional traffic of a total exchange
[Stunkel et al. 1994].  The T3D and Paragon NICs are full duplex.

Engine occupancy is what creates root-side serialization in gather
(the root's receive engine handles p-1 messages one after another) and
source-side serialization in scatter.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..sim import Environment, Event, Resource

__all__ = ["Nic"]


class Nic:
    """Transmit/receive engines of one node's network adapter."""

    def __init__(self, env: Environment, per_message_us: float,
                 bandwidth_mbs: float, half_duplex: bool = False,
                 fast_bandwidth_mbs: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 node_index: int = -1,
                 injector: Optional[object] = None):
        if bandwidth_mbs <= 0:
            raise ValueError(f"bandwidth must be positive, got "
                             f"{bandwidth_mbs}")
        if per_message_us < 0:
            raise ValueError(f"negative per-message cost {per_message_us}")
        self.env = env
        self.per_message_us = per_message_us
        self.us_per_byte = 1.0 / (bandwidth_mbs * 1.048576)
        if fast_bandwidth_mbs is None:
            self.fast_us_per_byte = self.us_per_byte
        elif fast_bandwidth_mbs <= 0:
            raise ValueError(f"fast bandwidth must be positive, got "
                             f"{fast_bandwidth_mbs}")
        else:
            self.fast_us_per_byte = 1.0 / (fast_bandwidth_mbs * 1.048576)
        self.half_duplex = half_duplex
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        #: Which node this adapter belongs to, and the optional
        #: :class:`~repro.faults.FaultInjector` that can stall it.
        self.node_index = node_index
        self.injector = injector
        self._tx = Resource(env, capacity=1)
        self._rx = self._tx if half_duplex else Resource(env, capacity=1)
        self.messages_sent = 0
        self.messages_received = 0

    def occupancy_us(self, nbytes: int, fast: bool = False) -> float:
        """Engine busy time for one message of ``nbytes``.

        ``fast`` selects the DMA-fed rate (a block-transfer engine or
        message coprocessor feeds the port at link speed, bypassing the
        slower host-driven path).
        """
        per_byte = self.fast_us_per_byte if fast else self.us_per_byte
        return self.per_message_us + nbytes * per_byte

    # -- synchronous booking fast path ------------------------------------
    def try_book_transmit(self, nbytes: int, fast: bool = False
                          ) -> Optional[Tuple[float, Resource, float]]:
        """Timestamp-book the transmit engine for one message.

        Returns ``(end_time, engine, previous_busy_until)`` — the
        latter two so the caller can roll back with
        ``engine.undo_occupy(previous)`` — or ``None`` when the engine
        has queued/granted requests and the protocol path must be used.
        The booking may start at the end of an earlier booking (the
        engine stays contiguously busy), exactly where a queued request
        would have been granted, so the end time is unchanged from full
        simulation.  Commit with :meth:`commit_transmit`.
        """
        return self._try_book(self._tx, nbytes, fast)

    def try_book_receive(self, nbytes: int, fast: bool = False
                         ) -> Optional[Tuple[float, Resource, float]]:
        """Timestamp-book the receive engine (see :meth:`try_book_transmit`).

        On a half-duplex adapter this is the *same* engine as transmit,
        so a transmit booked first pushes the receive booking after it
        — the FIFO order the concurrent wire legs would have produced.
        """
        return self._try_book(self._rx, nbytes, fast)

    def _try_book(self, engine: Resource, nbytes: int, fast: bool
                  ) -> Optional[Tuple[float, Resource, float]]:
        # Metrics want the queue-depth gauge of the request path, and
        # a stall (or any other in-flight fault) must see the grant.
        injector = self.injector
        if self.metrics.enabled or (
                injector is not None and injector.plan.has_inflight_faults):
            return None
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        duration = self.occupancy_us(nbytes, fast)
        booking = engine.try_occupy(duration)
        if booking is None:
            return None
        start, previous = booking
        return start + duration, engine, previous

    def commit_transmit(self) -> None:
        """Account one fast-booked transmit."""
        self.messages_sent += 1

    def commit_receive(self) -> None:
        """Account one fast-booked receive."""
        self.messages_received += 1

    def transmit(self, nbytes: int,
                 fast: bool = False) -> Generator[Event, None, None]:
        """Process generator: occupy the transmit engine for one message."""
        yield from self._occupy(self._tx, nbytes, fast, "nic.tx")
        self.messages_sent += 1

    def receive(self, nbytes: int,
                fast: bool = False) -> Generator[Event, None, None]:
        """Process generator: occupy the receive engine for one message."""
        yield from self._occupy(self._rx, nbytes, fast, "nic.rx")
        self.messages_received += 1

    def _occupy(self, engine: Resource, nbytes: int, fast: bool,
                label: str) -> Generator[Event, None, None]:
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        env = self.env
        # Engine idle or contiguously booked: one booking + one
        # completion event instead of request/grant/release churn.
        booked = self._try_book(engine, nbytes, fast)
        if booked is not None:
            work = env.work
            if work is not None:
                work.resource_occupancies += 1
            yield env.sleep_until(booked[0])
            return
        request = engine.request()
        metrics = self.metrics
        if metrics.enabled:
            # Depth *before* this request is granted: how many messages
            # are serialized behind the engine right now.
            metrics.gauge(f"{label}.queue_depth").set(engine.queue_length)
            metrics.counter(f"{label}.messages").inc()
            metrics.histogram(f"{label}.busy_us").observe(
                self.occupancy_us(nbytes, fast))
        yield request
        if self.injector is not None:
            # The injector records faults.nic_stall* metrics itself.
            stall = self.injector.nic_delay(self.node_index, self.env.now)
            if stall > 0:
                yield env.sleep(stall)
        yield env.sleep(self.occupancy_us(nbytes, fast))
        engine.release(request)
