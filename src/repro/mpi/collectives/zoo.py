"""The collective-algorithm zoo: optimised families for the autotuner.

The paper fixes one algorithm per (machine, op); its closing section
points at better collective implementations as the open direction.
This module registers the families that later MPI libraries settled on
(Rabenseifner's allreduce, recursive doubling, segmented/pipelined
trees — see Jocksch et al., arXiv:2006.13112), so ``repro.tuner`` can
race them against the period algorithms and fit crossover points
(Barchet-Estefanel & Mounié, arXiv:cs/0408034).

All algorithms run on every machine: none needs special hardware, and
all handle non-power-of-two communicator sizes by *folding* the
``size - 2**floor(log2 size)`` extra ranks onto partners below the
power-of-two core (the classic MPICH approach), so message sizes stay
exact — every byte count is computed arithmetically, never rounded up.

Registered names:

* ``recursive_doubling_allgather`` — log2(p) rounds of doubling
  exchanges; each rank's send size is its accumulated group's bytes.
* ``recursive_doubling_allreduce`` — log2(p) full-vector exchanges
  with a combine per round.
* ``recursive_halving_reduce_scatter`` — log2(p) halving exchanges;
  bandwidth-optimal reduce-scatter.
* ``rabenseifner_allreduce`` — recursive-halving reduce-scatter of
  the vector followed by a recursive-doubling allgather of the
  reduced segments; the long-message allreduce of choice.
* ``segmented_binomial_broadcast`` / ``segmented_binomial_reduce`` —
  the binomial trees, pipelined in tunable segments
  (:func:`make_segmented_broadcast` / :func:`make_segmented_reduce`
  build variants at any segment size).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .base import absolute_rank, collective_algorithm, virtual_rank
from .extensions import block_counts

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "make_segmented_broadcast",
    "make_segmented_reduce",
    "recursive_doubling_allgather",
    "recursive_doubling_allreduce",
    "recursive_halving_reduce_scatter",
    "rabenseifner_allreduce",
    "segmented_binomial_broadcast",
    "segmented_binomial_reduce",
]

#: Phase offsets for the fold/unfold exchanges around the
#: power-of-two core (distinct from the per-round ``mask.bit_length()``
#: phases and from the offsets other collective modules reserve).
_FOLD_PHASE = 1 << 17
_UNFOLD_PHASE = 1 << 19
#: Offset separating an algorithm's second stage (e.g. Rabenseifner's
#: allgather rounds) from its first.
_STAGE_PHASE = 1 << 21
#: Phase stride per pipeline segment of the segmented trees; round
#: phases are ``mask.bit_length() <= 63`` for any realistic size.
_SEGMENT_STRIDE = 64

#: Default pipeline segment of the segmented binomial trees.
DEFAULT_SEGMENT_BYTES = 4096


def _core_size(size: int) -> int:
    """Largest power of two <= ``size``."""
    return 1 << (size.bit_length() - 1)


def _group_bytes(vrank: int, group: int, counts: Tuple[int, ...]) -> int:
    """Bytes held by ``vrank``'s aligned group of ``group`` core slots."""
    start = (vrank // group) * group
    return sum(counts[start:start + group])


# -- recursive doubling / halving families ------------------------------


@collective_algorithm("recursive_doubling_allgather")
def recursive_doubling_allgather(s, nbytes: int, root: int = 0) -> None:
    """Recursive-doubling allgather: log2(p) doubling exchanges.

    Round ``r`` exchanges the accumulated ``2**r``-slot group with the
    partner ``rank ^ 2**r``; folded extra ranks contribute their block
    up front and receive the full ``p * nbytes`` result at the end.
    """
    size, rank = s.size, s.rank
    core = _core_size(size)
    extra = size - core
    if rank >= core:
        s.send(_FOLD_PHASE, rank - core, nbytes, "allgather")
        s.recv(_UNFOLD_PHASE, rank - core, "allgather")
        return
    if rank < extra:
        s.recv(_FOLD_PHASE, rank + core, "allgather")
    counts = tuple(nbytes * (2 if slot < extra else 1)
                   for slot in range(core))
    mask = 1
    while mask < core:
        partner = rank ^ mask
        phase = mask.bit_length()
        posted = s.post(phase, partner)
        s.send(phase, partner, _group_bytes(rank, mask, counts), "allgather")
        s.wait(posted, "allgather")
        mask <<= 1
    if rank < extra:
        s.send(_UNFOLD_PHASE, rank + core, size * nbytes, "allgather")


@collective_algorithm("recursive_doubling_allreduce")
def recursive_doubling_allreduce(s, nbytes: int, root: int = 0) -> None:
    """Recursive-doubling allreduce: full-vector exchange per round.

    Latency-optimal (log2(p) rounds) but each round moves the whole
    ``nbytes`` vector — the short-message allreduce.
    """
    size, rank = s.size, s.rank
    core = _core_size(size)
    extra = size - core
    if rank >= core:
        s.send(_FOLD_PHASE, rank - core, nbytes, "allreduce")
        s.recv(_UNFOLD_PHASE, rank - core, "allreduce")
        return
    if rank < extra:
        s.recv(_FOLD_PHASE, rank + core, "allreduce")
        s.combine(nbytes)
    mask = 1
    while mask < core:
        partner = rank ^ mask
        phase = mask.bit_length()
        posted = s.post(phase, partner)
        s.send(phase, partner, nbytes, "allreduce")
        s.wait(posted, "allreduce")
        s.combine(nbytes)
        mask <<= 1
    if rank < extra:
        s.send(_UNFOLD_PHASE, rank + core, nbytes, "allreduce")


def _recursive_halving(s, rank: int, core: int, counts: Tuple[int, ...],
                       op: str) -> None:
    """Shared halving loop: ``rank`` ends owning ``counts[rank]`` bytes.

    Round granularity ``g`` (``core/2, ..., 1``): exchange with
    ``rank ^ g``, sending the partner's aligned ``g``-slot half of the
    current range and combining the received contribution to ours.
    """
    group = core >> 1
    while group:
        partner = rank ^ group
        phase = group.bit_length()
        posted = s.post(phase, partner)
        s.send(phase, partner, _group_bytes(partner, group, counts), op)
        s.wait(posted, op)
        s.combine(_group_bytes(rank, group, counts))
        group >>= 1


@collective_algorithm("recursive_halving_reduce_scatter")
def recursive_halving_reduce_scatter(s, nbytes: int, root: int = 0) -> None:
    """Recursive-halving reduce-scatter (``nbytes`` per result block).

    Every rank contributes the full ``p * nbytes`` vector; halving
    leaves each core rank with its own reduced block (plus its folded
    twin's, which the unfold exchange hands back).
    """
    size, rank = s.size, s.rank
    core = _core_size(size)
    extra = size - core
    vector = size * nbytes
    if rank >= core:
        s.send(_FOLD_PHASE, rank - core, vector, "reduce_scatter")
        s.recv(_UNFOLD_PHASE, rank - core, "reduce_scatter")
        return
    if rank < extra:
        s.recv(_FOLD_PHASE, rank + core, "reduce_scatter")
        s.combine(vector)
    counts = tuple(nbytes * (2 if slot < extra else 1)
                   for slot in range(core))
    _recursive_halving(s, rank, core, counts, "reduce_scatter")
    if rank < extra:
        s.send(_UNFOLD_PHASE, rank + core, nbytes, "reduce_scatter")


@collective_algorithm("rabenseifner_allreduce")
def rabenseifner_allreduce(s, nbytes: int, root: int = 0) -> None:
    """Rabenseifner allreduce: reduce-scatter + allgather composition.

    Recursive halving scatters the reduction of the ``nbytes`` vector
    across the core (each rank combines ever-smaller segments), then
    recursive doubling gathers the reduced segments back — about half
    the bytes of reduce-then-broadcast for long vectors.
    """
    size, rank = s.size, s.rank
    core = _core_size(size)
    extra = size - core
    if rank >= core:
        s.send(_FOLD_PHASE, rank - core, nbytes, "allreduce")
        s.recv(_UNFOLD_PHASE, rank - core, "allreduce")
        return
    if rank < extra:
        s.recv(_FOLD_PHASE, rank + core, "allreduce")
        s.combine(nbytes)
    segments = block_counts(nbytes, core)
    _recursive_halving(s, rank, core, segments, "allreduce")
    # Allgather the reduced segments by recursive doubling.
    group = 1
    while group < core:
        partner = rank ^ group
        phase = _STAGE_PHASE + group.bit_length()
        posted = s.post(phase, partner)
        s.send(phase, partner, _group_bytes(rank, group, segments),
               "allreduce")
        s.wait(posted, "allreduce")
        group <<= 1
    if rank < extra:
        s.send(_UNFOLD_PHASE, rank + core, nbytes, "allreduce")


# -- segmented/pipelined binomial trees ---------------------------------


def _segment_sizes(nbytes: int, segment_bytes: int) -> Tuple[int, ...]:
    """Split ``nbytes`` into full segments plus a remainder tail.

    Sums to exactly ``nbytes``; a payload-free operation still moves
    one zero-byte segment so the tree's synchronization happens.
    """
    if nbytes <= 0:
        return (0,)
    full, tail = divmod(nbytes, segment_bytes)
    return (segment_bytes,) * full + ((tail,) if tail else ())


def _binomial_links(vrank: int, size: int):
    """Entry mask (None for the root) and children of ``vrank``.

    Children are listed largest-subtree first, matching the forwarding
    order of the plain binomial broadcast.
    """
    mask = 1
    entry = None
    while mask < size:
        if vrank & mask:
            entry = mask
            break
        mask <<= 1
    top = entry if entry is not None else mask
    children: List[Tuple[int, int]] = []
    child_mask = top >> 1
    while child_mask:
        if vrank + child_mask < size:
            children.append((vrank + child_mask, child_mask))
        child_mask >>= 1
    return entry, children


def make_segmented_broadcast(segment_bytes: int) -> Callable:
    """Build a pipelined binomial broadcast with ``segment_bytes``
    segments (register the result under your own name to tune the
    segment size)."""
    if segment_bytes < 1:
        raise ValueError(f"segment_bytes must be >= 1, got "
                         f"{segment_bytes}")

    def segmented_broadcast(s, nbytes: int, root: int = 0) -> None:
        size = s.size
        vrank = virtual_rank(s.rank, root, size)
        entry, children = _binomial_links(vrank, size)
        parent = absolute_rank(vrank - entry, root, size) \
            if entry is not None else None
        for index, segment in enumerate(_segment_sizes(nbytes,
                                                       segment_bytes)):
            base = index * _SEGMENT_STRIDE
            if parent is not None:
                s.recv(base + entry.bit_length(), parent, "broadcast")
            for child_vrank, child_mask in children:
                child = absolute_rank(child_vrank, root, size)
                s.send(base + child_mask.bit_length(), child, segment,
                       "broadcast")

    return segmented_broadcast


def make_segmented_reduce(segment_bytes: int) -> Callable:
    """Build a pipelined binomial reduce with ``segment_bytes``
    segments."""
    if segment_bytes < 1:
        raise ValueError(f"segment_bytes must be >= 1, got "
                         f"{segment_bytes}")

    def segmented_reduce(s, nbytes: int, root: int = 0) -> None:
        size = s.size
        vrank = virtual_rank(s.rank, root, size)
        entry, children = _binomial_links(vrank, size)
        # Combine in increasing-mask order, like the plain binomial
        # reduce (children were listed largest-first).
        children = list(reversed(children))
        for index, segment in enumerate(_segment_sizes(nbytes,
                                                       segment_bytes)):
            base = index * _SEGMENT_STRIDE
            for child_vrank, child_mask in children:
                child = absolute_rank(child_vrank, root, size)
                s.recv(base + child_mask.bit_length(), child, "reduce")
                s.combine(segment)
            if entry is not None:
                parent = absolute_rank(vrank - entry, root, size)
                s.send(base + entry.bit_length(), parent, segment, "reduce")

    return segmented_reduce


segmented_binomial_broadcast = collective_algorithm(
    "segmented_binomial_broadcast")(
        make_segmented_broadcast(DEFAULT_SEGMENT_BYTES))
segmented_binomial_reduce = collective_algorithm(
    "segmented_binomial_reduce")(
        make_segmented_reduce(DEFAULT_SEGMENT_BYTES))
