"""Scatter algorithms.

One-to-many: the root issues one message per destination.  Because the
transport only blocks the sender for its local issue + payload-move
costs, successive sends pipeline through the NIC and network — the root
pays the *marginal* per-message cost Table 3 shows (about 3.7 us per
destination on the SP2), not a full one-way latency per destination.
"""

from __future__ import annotations

from .base import collective_algorithm

__all__ = ["linear_scatter"]


@collective_algorithm("linear_scatter")
def linear_scatter(s, nbytes: int, root: int = 0) -> None:
    """Direct scatter: root sends to every other rank in rank order."""
    if s.rank == root:
        for dst in range(s.size):
            if dst != root:
                s.send(0, dst, nbytes, "scatter")
        return
    s.recv(0, root, "scatter")
