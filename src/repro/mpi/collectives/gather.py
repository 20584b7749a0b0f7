"""Gather algorithms.

The paper observes O(p) gather startup on all three machines: gather is
many-to-one, so "O(p) stages of data communication are required".  The
linear algorithm is what MPICH and the vendor ports used: every leaf
sends directly to the root, which posts all receives up front and then
retires them one after another — the root's per-message receive cost is
the marginal term of Table 3 (about 5.8 us on the SP2, 4.3 us on the
T3D, and 18 us through the Paragon's NX kernel).
"""

from __future__ import annotations

from .base import collective_algorithm

__all__ = ["linear_gather"]


@collective_algorithm("linear_gather")
def linear_gather(s, nbytes: int, root: int = 0) -> None:
    """Direct gather: leaves send to the root; root drains in order."""
    if s.rank != root:
        s.send(0, root, nbytes, "gather")
        return
    posted = [s.post(0, src) for src in range(s.size) if src != root]
    for receive in posted:
        s.wait(receive, "gather")
