"""Composite collectives built from the paper's primitives.

The paper's Table 1 covers seven operations; ``MPI_Allreduce`` and
``MPI_Allgather`` are provided as the natural compositions the era's
MPI implementations used (reduce-then-broadcast and
gather-then-broadcast).  They are exercised by the extension benches
and examples, not by the paper's figures.
"""

from __future__ import annotations

from .base import collective_algorithm, get_algorithm

__all__ = ["reduce_broadcast_allreduce", "gather_broadcast_allgather"]

#: Phase offset isolating the second sub-operation's tags.
_SECOND_STAGE = 1 << 20


def _second_stage(s, op: str, nbytes: int, root: int) -> None:
    """Append the machine's ``op`` algorithm with its phases shifted
    past the first stage's, so the two stages of one composite
    collective share a sequence number without tag collisions."""
    s.phase_offset += _SECOND_STAGE
    get_algorithm(s.spec.algorithm_for(op))(s, nbytes, root)
    s.phase_offset -= _SECOND_STAGE


@collective_algorithm("reduce_broadcast_allreduce")
def reduce_broadcast_allreduce(s, nbytes: int, root: int = 0) -> None:
    """Allreduce as reduce-to-root followed by broadcast."""
    get_algorithm(s.spec.algorithm_for("reduce"))(s, nbytes, root)
    _second_stage(s, "broadcast", nbytes, root)


@collective_algorithm("reduce_scatter_composite")
def reduce_scatter_composite(s, nbytes: int, root: int = 0) -> None:
    """Reduce-scatter as reduce of the full vector, then scatter.

    The reduce carries all ``p`` blocks (``p * nbytes``); the scatter
    hands each rank its block — the straightforward composition the
    era's libraries used for ``MPI_Reduce_scatter``.
    """
    get_algorithm(s.spec.algorithm_for("reduce"))(s, nbytes * s.size, root)
    _second_stage(s, "scatter", nbytes, root)


@collective_algorithm("gather_broadcast_allgather")
def gather_broadcast_allgather(s, nbytes: int, root: int = 0) -> None:
    """Allgather as gather-to-root followed by broadcast of the result.

    The broadcast carries the concatenated buffer (``p * nbytes``).
    """
    get_algorithm(s.spec.algorithm_for("gather"))(s, nbytes, root)
    _second_stage(s, "broadcast", nbytes * s.size, root)
