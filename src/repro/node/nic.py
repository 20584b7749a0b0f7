"""Network interface model.

A NIC has a transmit engine and a receive engine, each a capacity-1
resource with a per-message cost and a serialization bandwidth.  The
SP2's communication adapter is modelled *half duplex*: one engine is
shared between transmit and receive, which is part of why the SP2
struggles with the bidirectional traffic of a total exchange
[Stunkel et al. 1994].  The T3D and Paragon NICs are full duplex.

Engine occupancy is what creates root-side serialization in gather
(the root's receive engine handles p-1 messages one after another) and
source-side serialization in scatter.  Only the NIC itself uses its
engines, so every message books them with timestamps
(:meth:`~repro.sim.Resource.try_occupy`) instead of requesting them:
the booking ends where a FIFO-granted holder would have released.  A
planned NIC stall is part of the booking: an engine granted inside the
stall window holds for the rest of the window before the message.
"""

from __future__ import annotations

from typing import Optional

from ..obs.metrics import MetricsRegistry
from ..sim import Environment, Resource

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
        if self.metrics.enabled:
            self._tx.track_bookings()
            self._rx.track_bookings()
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

    # -- engine bookings --------------------------------------------------
    def book_transmit(self, nbytes: int, fast: bool = False) -> float:
        """Book the transmit engine for one message; return when it
        frees up.

        The booking starts now, or back-to-back at the end of the
        engine's previous booking — exactly where a FIFO request would
        have been granted.
        """
        end = self._book(self._tx, nbytes, fast, "nic.tx")
        self.messages_sent += 1
        return end

    def book_receive(self, nbytes: int, fast: bool = False) -> float:
        """Book the receive engine (see :meth:`book_transmit`).

        On a half-duplex adapter this is the *same* engine as transmit,
        so a transmit booked first pushes the receive booking after it.
        """
        end = self._book(self._rx, nbytes, fast, "nic.rx")
        self.messages_received += 1
        return end

    def _book(self, engine: Resource, nbytes: int, fast: bool,
              label: str) -> float:
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        occupancy = self.occupancy_us(nbytes, fast)
        stall = 0.0
        injector = self.injector
        if injector is not None and injector.plan.nic_stalls:
            # A stall wedges the engine from its grant on: the booking
            # holds it for the stall, then for the message.
            now = self.env._now
            start = engine.booked_until
            # The injector records faults.nic_stall* metrics itself.
            stall = injector.nic_delay(self.node_index,
                                       start if start > now else now)
        start, _ = engine.try_occupy(occupancy, stall)
        metrics = self.metrics
        if metrics.enabled:
            # How many messages wait for the engine, this one included
            # unless the engine is free now.
            metrics.gauge(f"{label}.queue_depth").set(
                engine.pending_bookings)
            metrics.counter(f"{label}.messages").inc()
            metrics.histogram(f"{label}.busy_us").observe(occupancy)
        return start + stall + occupancy
