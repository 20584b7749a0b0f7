"""Improved collective algorithms (the paper's further-work direction).

The paper closes by suggesting research into better collective
implementations.  These variants are the improvements that became
standard in later MPI libraries; none is selected by the default 1996
machine models, but all are registered for what-if studies and the
extension bench races them against the period algorithms:

* ``scatter_allgather_broadcast`` — van de Geijn's long-message
  broadcast: scatter ``m/p`` chunks, then ring-allgather them.  Moves
  ~2m per node instead of m per tree level, so it beats the binomial
  tree once ``m`` is large and ``p`` exceeds a few nodes.
* ``ring_allgather`` — p-1 neighbour exchanges of one block each;
  bandwidth-optimal allgather.
* ``binomial_tree_gather`` — gather over a binomial tree; fewer, larger
  messages into the root (latency-better, bandwidth-equal).
"""

from __future__ import annotations

from typing import Tuple

from .base import absolute_rank, collective_algorithm, virtual_rank

__all__ = ["block_counts", "scatter_allgather_broadcast",
           "ring_allgather", "binomial_tree_gather",
           "ring_reduce_scatter"]

#: Phase offset separating the two stages of the van de Geijn broadcast.
_RING_PHASE = 1 << 18


def block_counts(nbytes: int, size: int) -> Tuple[int, ...]:
    """Balanced split of ``nbytes`` into ``size`` blocks.

    The first ``nbytes % size`` blocks carry one extra byte, so the
    counts always sum to exactly ``nbytes`` — unlike a uniform
    ``ceil(nbytes / size)`` chunk, which over-sends whenever ``size``
    does not divide ``nbytes``.
    """
    base, remainder = divmod(nbytes, size)
    return tuple(base + (1 if index < remainder else 0)
                 for index in range(size))


@collective_algorithm("scatter_allgather_broadcast")
def scatter_allgather_broadcast(s, nbytes: int, root: int = 0) -> None:
    """van de Geijn broadcast: linear scatter + ring allgather.

    Block ``i`` (sized by :func:`block_counts`, so the blocks sum to
    exactly ``nbytes``) is owned by virtual rank ``i``; in ring step
    ``s`` virtual rank ``v`` forwards block ``(v - s) mod p`` to its
    right neighbour, so after ``p - 1`` steps every rank holds the
    whole message having moved only its fair share of the remainder.
    """
    size = s.size
    vrank = virtual_rank(s.rank, root, size)
    counts = block_counts(nbytes, size)
    # Stage 1: the root scatters one block per rank.
    if s.rank == root:
        for dst in range(size):
            if dst != root:
                s.send(0, dst, counts[virtual_rank(dst, root, size)],
                       "broadcast")
    else:
        s.recv(0, root, "broadcast")
    # Stage 2: ring allgather of the blocks; after p-1 steps every rank
    # holds the whole message.
    right = (s.rank + 1) % size
    left = (s.rank - 1) % size
    for step in range(size - 1):
        posted = s.post(_RING_PHASE + step, left)
        s.send(_RING_PHASE + step, right, counts[(vrank - step) % size],
               "broadcast")
        s.wait(posted, "broadcast")


@collective_algorithm("ring_allgather")
def ring_allgather(s, nbytes: int, root: int = 0) -> None:
    """Ring allgather: p-1 neighbour exchanges of one block each."""
    size = s.size
    right = (s.rank + 1) % size
    left = (s.rank - 1) % size
    for step in range(size - 1):
        posted = s.post(step, left)
        s.send(step, right, nbytes, "allgather")
        s.wait(posted, "allgather")


@collective_algorithm("ring_reduce_scatter")
def ring_reduce_scatter(s, nbytes: int, root: int = 0) -> None:
    """Bandwidth-optimal ring reduce-scatter.

    ``p-1`` steps: each rank passes a partially reduced block to its
    right neighbour, combining the block it receives from the left —
    every rank ends with one fully reduced block having moved only
    ``(p-1) * nbytes`` bytes.
    """
    size = s.size
    right = (s.rank + 1) % size
    left = (s.rank - 1) % size
    for step in range(size - 1):
        posted = s.post(step, left)
        s.send(step, right, nbytes, "reduce_scatter")
        s.wait(posted, "reduce_scatter")
        s.combine(nbytes)


@collective_algorithm("binomial_tree_gather")
def binomial_tree_gather(s, nbytes: int, root: int = 0) -> None:
    """Binomial-tree gather: subtrees merge, then forward upward.

    Virtual rank ``v`` receives the aggregated blocks of each subtree
    hanging off its set-bit children, then sends its whole accumulated
    segment (its subtree size times ``nbytes``) to its parent.
    """
    size = s.size
    vrank = virtual_rank(s.rank, root, size)
    accumulated = nbytes  # own block
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = absolute_rank(vrank - mask, root, size)
            s.send(mask.bit_length(), parent, accumulated, "gather")
            return
        source_vrank = vrank | mask
        if source_vrank < size:
            source = absolute_rank(source_vrank, root, size)
            subtree = min(mask, size - source_vrank)
            s.recv(mask.bit_length(), source, "gather")
            accumulated += subtree * nbytes
        mask <<= 1
