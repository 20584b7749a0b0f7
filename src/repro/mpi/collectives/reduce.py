"""Reduce algorithms.

Two tree shapes are implemented, matching the ports the paper names:
MPICH's binomial reduce (SP2, Paragon) and EPCC MPI's binary-tree
reduce on the T3D ("a binary tree is formed to perform [the] reduce
operation" [Cameron et al. 1995]).  Both give the O(log p) startup the
paper fits; they differ in constant factors and in how much combining
work the interior ranks do.
"""

from __future__ import annotations

from .base import absolute_rank, collective_algorithm, virtual_rank

__all__ = ["binomial_reduce", "binary_tree_reduce"]


@collective_algorithm("binomial_reduce")
def binomial_reduce(s, nbytes: int, root: int = 0) -> None:
    """MPICH binomial-tree reduce for commutative operators.

    Mirror image of the binomial broadcast: in round ``r`` ranks whose
    virtual rank has bit ``r`` set send their partial result to the
    rank ``2**r`` below them and drop out; the receiver combines.
    """
    size = s.size
    vrank = virtual_rank(s.rank, root, size)
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = absolute_rank(vrank - mask, root, size)
            s.send(mask.bit_length(), parent, nbytes, "reduce")
            break
        source_vrank = vrank | mask
        if source_vrank < size:
            source = absolute_rank(source_vrank, root, size)
            s.recv(mask.bit_length(), source, "reduce")
            s.combine(nbytes)
        mask <<= 1


@collective_algorithm("binary_tree_reduce")
def binary_tree_reduce(s, nbytes: int, root: int = 0) -> None:
    """EPCC-style binary-tree reduce.

    Virtual rank ``v`` has children ``2v+1`` and ``2v+2``; every
    interior rank receives from both children (left first), combines,
    and forwards to its parent ``(v-1)//2``.
    """
    size = s.size
    vrank = virtual_rank(s.rank, root, size)
    posted = [s.post(0, absolute_rank(child_vrank, root, size))
              for child_vrank in (2 * vrank + 1, 2 * vrank + 2)
              if child_vrank < size]
    for receive in posted:  # both children drain concurrently
        s.wait(receive, "reduce")
        s.combine(nbytes)
    if vrank > 0:
        parent = absolute_rank((vrank - 1) // 2, root, size)
        s.send(0, parent, nbytes, "reduce")
