"""Total exchange (alltoall) algorithms.

Every node sends a distinct message to every other node — the heaviest
collective in the paper (aggregated message length ``m * p * (p-1)``).

``pairwise_exchange_alltoall`` is the MPICH-style algorithm used for
the SP2 and T3D models: p-1 rounds; in round ``r`` each rank exchanges
with one partner, so the traffic pattern is a sequence of (near-)
permutations.  All messages go through the *buffered* transport path —
with sends and receives simultaneously outstanding, the kernel manages
system buffers for both directions.

``sequential_alltoall`` models the Paragon's behaviour, which the paper
calls "the least efficient scheme ... through the NX messaging
subsystem": push all p-1 messages first, then drain receives in rank
order, so most arrivals are unexpected and pay the NX buffering and
copy-out costs — the source of the Paragon's 4-15x higher total
exchange and gather latencies in Fig. 4.
"""

from __future__ import annotations

from .base import collective_algorithm

__all__ = ["posted_alltoall", "pairwise_exchange_alltoall",
           "sequential_alltoall"]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _partners(rank: int, size: int, offset: int):
    """Round-``offset`` partners: XOR pairing when possible, else ring."""
    if _is_power_of_two(size):
        partner = rank ^ offset
        return partner, partner
    return (rank + offset) % size, (rank - offset) % size


@collective_algorithm("posted_alltoall")
def posted_alltoall(s, nbytes: int, root: int = 0) -> None:
    """MPICH-style total exchange: post everything, then drain.

    All ``p-1`` receives are posted first, then all sends issued, then
    receives completed — so sends pipeline through the NIC and nearly
    every arrival finds its receive posted.  The per-node cost is the
    sum of per-message send and receive work, the O(p) startup term of
    Table 3.
    """
    rank, size = s.rank, s.size
    rounds = range(1, size)
    posted = []
    for offset in rounds:
        _, recv_from = _partners(rank, size, offset)
        posted.append(s.post(offset, recv_from))
    for offset in rounds:
        send_to, _ = _partners(rank, size, offset)
        s.send(offset, send_to, nbytes, "alltoall", buffered=True)
    for receive in posted:
        s.wait(receive, "alltoall", buffered=True)


@collective_algorithm("pairwise_exchange_alltoall")
def pairwise_exchange_alltoall(s, nbytes: int, root: int = 0) -> None:
    """Strict pairwise exchange: one synchronized partner per round.

    Kept as an ablation variant: each round blocks on its receive, so
    the one-way latency lands on every round's critical path.
    """
    rank, size = s.rank, s.size
    for offset in range(1, size):
        send_to, recv_from = _partners(rank, size, offset)
        posted = s.post(offset, recv_from)
        s.send(offset, send_to, nbytes, "alltoall", buffered=True)
        s.wait(posted, "alltoall", buffered=True)


@collective_algorithm("sequential_alltoall")
def sequential_alltoall(s, nbytes: int, root: int = 0) -> None:
    """Naive total exchange: all sends first, then receives in order.

    Receives are posted only when their turn comes, so messages that
    already arrived sit in the unexpected queue and pay the
    unexpected-handling cost plus the system-buffer copy-out.
    """
    rank, size = s.rank, s.size
    for dst in range(size):
        if dst != rank:
            s.send(0, dst, nbytes, "alltoall", buffered=True)
    for src in range(size):
        if src != rank:
            s.recv(0, src, "alltoall", buffered=True)
