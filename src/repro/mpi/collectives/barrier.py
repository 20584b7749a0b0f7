"""Barrier algorithms.

``tree_barrier`` is the software path (SP2, Paragon): a zero-byte
binomial gather to rank 0 followed by a zero-byte binomial broadcast —
``2 * ceil(log2 p)`` message rounds, giving the O(log p) startup with
the large constants the paper measures (~123 log p on the SP2,
~147 log p on the Paragon).

``hardware_barrier`` uses the T3D's dedicated barrier wire: ~3 us
regardless of machine size (Section 4: "With hardwired barriers, the
T3D performs the barrier synchronization in 3 us, at least 30 times
faster than the SP2 or Paragon").
"""

from __future__ import annotations

from ..errors import MpiError
from .base import collective_algorithm

__all__ = ["tree_barrier", "hardware_barrier"]

#: Phase offset separating the release broadcast from the arrival
#: gather so their zero-byte messages cannot be confused.
_RELEASE_PHASE = 1 << 16


@collective_algorithm("tree_barrier")
def tree_barrier(s, nbytes: int, root: int = 0) -> None:
    """Software combine-and-release tree barrier."""
    rank, size = s.rank, s.size
    vrank = (rank - root) % size
    # Arrival phase: binomial combine toward the root.
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            s.send(mask.bit_length(), parent, 0, "barrier")
            break
        child_vrank = vrank | mask
        if child_vrank < size:
            child = (child_vrank + root) % size
            s.recv(mask.bit_length(), child, "barrier")
        mask <<= 1
    # Release phase: binomial broadcast from the root.
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            s.recv(_RELEASE_PHASE + mask.bit_length(), parent, "barrier")
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            child = (vrank + mask + root) % size
            s.send(_RELEASE_PHASE + mask.bit_length(), child, 0,
                   "barrier")
        mask >>= 1


@collective_algorithm("hardware_barrier")
def hardware_barrier(s, nbytes: int, root: int = 0) -> None:
    """Barrier over the dedicated barrier-wire network (T3D).

    The barrier wire is machine-wide: a sub-communicator cannot use it
    (its other nodes would never arrive), so sub-communicator barriers
    fall back to the software tree — as the T3D's MPI did for
    partition subsets.
    """
    if s.spec.barrier_wire is None:
        raise MpiError(f"{s.spec.name} has no hardware barrier network")
    if not s.is_world:
        tree_barrier(s, nbytes, root)
        return
    s.hardware_barrier()
