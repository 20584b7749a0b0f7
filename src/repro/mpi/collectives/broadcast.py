"""Broadcast algorithms.

The paper observes O(log p) broadcast startup on all three machines:
"a treelike algorithm is usually employed to deliver the message", with
EPCC MPI forming an unbalanced tree — which is exactly the binomial
tree MPICH uses as well, so one implementation serves all three machine
models.
"""

from __future__ import annotations

from .base import absolute_rank, collective_algorithm, virtual_rank

__all__ = ["binomial_broadcast"]


@collective_algorithm("binomial_broadcast")
def binomial_broadcast(s, nbytes: int, root: int = 0) -> None:
    """Binomial-tree broadcast (the MPICH/EPCC unbalanced tree).

    ``ceil(log2 p)`` rounds; in round ``r`` every rank that already has
    the data forwards it to the rank ``2**r`` virtual positions away.
    Non-root ranks receive exactly once, then forward to their subtree.
    Message phases are tagged with the bit index of the round's mask so
    sender and receiver agree on the tag.
    """
    size = s.size
    vrank = virtual_rank(s.rank, root, size)
    mask = 1
    # Receive once from the subtree parent (the rank that differs from
    # us in our lowest set bit).
    while mask < size:
        if vrank & mask:
            parent = absolute_rank(vrank - mask, root, size)
            s.recv(mask.bit_length(), parent, "broadcast")
            break
        mask <<= 1
    # Forward to children: one per set bit below our entry mask.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            child = absolute_rank(vrank + mask, root, size)
            s.send(mask.bit_length(), child, nbytes, "broadcast")
        mask >>= 1
