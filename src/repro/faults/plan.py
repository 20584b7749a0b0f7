"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, JSON-serializable description of every
fault a run injects: scheduled link outages and degradations,
probabilistic message loss/corruption, NIC stall windows, and node
slowdowns, plus the :class:`RetryConfig` of the transport's recovery
protocol.  Because the plan is a plain dataclass tree, it feeds directly
into the sweep-cell fingerprint (:mod:`repro.runner.fingerprint`): any
field change produces a different cache key, and the same plan + seed
reproduces the same run bit for bit.

Link-shaped faults select a link by ``(src, dst)`` node pair: the fault
applies to the *first hop* of the route from ``src`` to ``dst`` — for
adjacent nodes that is the direct link between them.  Windows are
``[start_us, end_us)`` in simulated time; ``end_us=None`` means the
fault lasts for the rest of the run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "RetryConfig",
    "LinkOutage",
    "LinkDegradation",
    "NicStall",
    "NodeSlowdown",
    "FaultPlan",
    "FAULT_FREE",
    "FAULT_PRESETS",
    "fault_preset",
]


def _check_window(start_us: float, end_us: Optional[float]) -> None:
    if start_us < 0:
        raise ValueError(f"fault window starts in the past ({start_us})")
    if end_us is not None and end_us <= start_us:
        raise ValueError(
            f"empty fault window [{start_us}, {end_us})")


def _window_active(now: float, start_us: float,
                   end_us: Optional[float]) -> bool:
    return start_us <= now and (end_us is None or now < end_us)


@dataclass(frozen=True)
class RetryConfig:
    """Parameters of the transport's ack/timeout/retransmit protocol.

    The retransmission timeout for attempt ``n`` (0-based) is
    ``timeout_us * backoff ** n`` capped at ``max_timeout_us``; after
    ``max_retries`` failed retransmissions the send fails with
    :class:`~repro.mpi.errors.DeliveryError`.  ``ack_bytes`` sizes the
    acknowledgement used to estimate the ack return latency.
    """

    timeout_us: float = 1000.0
    backoff: float = 2.0
    max_timeout_us: float = 60000.0
    max_retries: int = 8
    ack_bytes: int = 16

    def __post_init__(self) -> None:
        if self.timeout_us <= 0:
            raise ValueError(f"timeout_us must be > 0, got "
                             f"{self.timeout_us}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_timeout_us < self.timeout_us:
            raise ValueError("max_timeout_us below initial timeout")
        if self.max_retries < 0:
            raise ValueError(f"negative max_retries {self.max_retries}")
        if self.ack_bytes < 0:
            raise ValueError(f"negative ack_bytes {self.ack_bytes}")

    def timeout_for_attempt(self, attempt: int) -> float:
        """Bounded exponential-backoff timeout for ``attempt`` (0-based)."""
        return min(self.timeout_us * self.backoff ** attempt,
                   self.max_timeout_us)


@dataclass(frozen=True)
class LinkOutage:
    """The link out of ``src`` toward ``dst`` is dead during the window.

    Transfers holding or waiting for the link when the outage begins
    are aborted (via :class:`~repro.sim.Interrupt`); new transfers
    route around it where the topology offers an alternate path.
    """

    src: int
    dst: int
    start_us: float = 0.0
    end_us: Optional[float] = None

    def __post_init__(self) -> None:
        _check_window(self.start_us, self.end_us)

    def active(self, now: float) -> bool:
        return _window_active(now, self.start_us, self.end_us)


@dataclass(frozen=True)
class LinkDegradation:
    """The link out of ``src`` toward ``dst`` slows by ``factor``.

    During the window the per-byte serialization cost of any transfer
    whose route crosses the link is multiplied by ``factor`` (the worm
    drains at the slowest link's rate).
    """

    src: int
    dst: int
    factor: float
    start_us: float = 0.0
    end_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(
                f"degradation factor must be >= 1, got {self.factor}")
        _check_window(self.start_us, self.end_us)

    def active(self, now: float) -> bool:
        return _window_active(now, self.start_us, self.end_us)


@dataclass(frozen=True)
class NicStall:
    """Node ``node``'s NIC engines stall during the window.

    Any engine occupancy granted inside the window is delayed until the
    window ends before it starts moving bytes — the adapter firmware is
    wedged and recovers at ``start_us + duration_us``.
    """

    node: int
    start_us: float
    duration_us: float

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ValueError(
                f"stall duration must be > 0, got {self.duration_us}")
        _check_window(self.start_us, self.start_us + self.duration_us)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    def delay_at(self, now: float) -> float:
        """Extra delay an engine grant at ``now`` suffers (0 outside)."""
        if self.start_us <= now < self.end_us:
            return self.end_us - now
        return 0.0


@dataclass(frozen=True)
class NodeSlowdown:
    """Node ``node``'s software costs inflate by ``factor`` in the window."""

    node: int
    factor: float
    start_us: float = 0.0
    end_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(
                f"slowdown factor must be >= 1, got {self.factor}")
        _check_window(self.start_us, self.end_us)

    def active(self, now: float) -> bool:
        return _window_active(now, self.start_us, self.end_us)


@dataclass(frozen=True)
class FaultPlan:
    """Everything a run injects, plus the recovery-protocol parameters.

    ``loss_probability`` and ``corruption_probability`` are per wire
    traversal (per transmission attempt, so a retransmitted message
    rolls again); both draw from the ``faults.message`` stream of the
    run's :class:`~repro.sim.RandomStreams`, so the same master seed
    reproduces the same fates.  An *empty* plan (the default) is
    fault-free: no randomness is consumed, no recovery protocol is
    engaged, and timings are identical to a run with no plan at all.
    """

    name: str = "fault-free"
    loss_probability: float = 0.0
    corruption_probability: float = 0.0
    link_outages: Tuple[LinkOutage, ...] = ()
    link_degradations: Tuple[LinkDegradation, ...] = ()
    nic_stalls: Tuple[NicStall, ...] = ()
    node_slowdowns: Tuple[NodeSlowdown, ...] = ()
    retry: RetryConfig = field(default_factory=RetryConfig)

    def __post_init__(self) -> None:
        for label, p in (("loss", self.loss_probability),
                         ("corruption", self.corruption_probability)):
            if not 0.0 <= p < 1.0:
                raise ValueError(
                    f"{label} probability must be in [0, 1), got {p}")
        if self.loss_probability + self.corruption_probability >= 1.0:
            raise ValueError("loss + corruption probability must be < 1")
        # Coerce lists (e.g. from JSON) to tuples so the plan hashes.
        for name in ("link_outages", "link_degradations", "nic_stalls",
                     "node_slowdowns"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def is_fault_free(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.loss_probability == 0.0
                and self.corruption_probability == 0.0
                and not self.link_outages
                and not self.link_degradations
                and not self.nic_stalls
                and not self.node_slowdowns)

    @property
    def has_inflight_faults(self) -> bool:
        """Whether any fault acts on a transfer after it is issued.

        Link outages abort transfers mid-flight, degradations stretch
        them, and NIC stalls delay engine grants, so each needs every
        hop simulated.  A plan with none of them only draws per-message
        fates and slows node software, which the transport's analytic
        short-circuit handles exactly.
        """
        return bool(self.link_outages or self.link_degradations
                    or self.nic_stalls)

    @property
    def is_probabilistic(self) -> bool:
        """Whether the plan consumes randomness per message."""
        return (self.loss_probability > 0.0
                or self.corruption_probability > 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict rendering (JSON-ready; inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output / parsed JSON."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan fields: "
                             f"{sorted(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        for name, event_cls in (("link_outages", LinkOutage),
                                ("link_degradations", LinkDegradation),
                                ("nic_stalls", NicStall),
                                ("node_slowdowns", NodeSlowdown)):
            if name in kwargs:
                kwargs[name] = tuple(
                    item if isinstance(item, event_cls)
                    else event_cls(**item)
                    for item in kwargs[name])
        retry = kwargs.get("retry")
        if retry is not None and not isinstance(retry, RetryConfig):
            kwargs["retry"] = RetryConfig(**retry)
        return cls(**kwargs)


#: The canonical empty plan.
FAULT_FREE = FaultPlan()

#: Named plans the CLI and CI exercise.  Node pairs reference nodes 0/1,
#: which exist on every machine size >= 2.
FAULT_PRESETS: Dict[str, FaultPlan] = {
    "none": FAULT_FREE,
    "single-link-outage": FaultPlan(
        name="single-link-outage",
        link_outages=(LinkOutage(src=0, dst=1, start_us=0.0),)),
    "flaky-link": FaultPlan(
        name="flaky-link",
        link_degradations=(LinkDegradation(src=0, dst=1, factor=4.0),)),
    "lossy": FaultPlan(name="lossy", loss_probability=0.02,
                       corruption_probability=0.01),
    "slow-node": FaultPlan(
        name="slow-node",
        node_slowdowns=(NodeSlowdown(node=1, factor=2.0),)),
    # The chaos_broadcast scenario: a link dies while a large broadcast
    # is in flight, so transfers already holding it abort and recover
    # (retransmit + detour) rather than just routing around from t=0.
    "midflight-outage": FaultPlan(
        name="midflight-outage",
        link_outages=(LinkOutage(src=0, dst=1, start_us=23000.0),)),
    "chaos": FaultPlan(
        name="chaos",
        loss_probability=0.01,
        corruption_probability=0.005,
        link_degradations=(LinkDegradation(src=0, dst=1, factor=2.0),),
        nic_stalls=(NicStall(node=1, start_us=200.0,
                             duration_us=150.0),),
        node_slowdowns=(NodeSlowdown(node=0, factor=1.5),)),
}


def fault_preset(name: str) -> FaultPlan:
    """Look up a named fault-plan preset."""
    try:
        return FAULT_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_PRESETS))
        raise KeyError(f"unknown fault preset {name!r}; known presets: "
                       f"{known}") from None
