"""Collective-algorithm registry and shared tree helpers.

Each algorithm is a plain function with the uniform signature
``algorithm(s, nbytes, root)``: it describes one rank's part of the
collective by appending steps to the
:class:`~repro.mpi.schedule.ScheduleBuilder` ``s`` — ``s.send``,
``s.post``/``s.wait`` (or ``s.recv``), ``s.combine``, ``s.delay`` and
``s.hardware_barrier`` — and reads only ``s.rank``, ``s.size``,
``s.is_world`` and ``s.spec`` (the machine facts a schedule may depend
on).  ``nbytes`` is the per-pair message length and ``root`` the root
rank (ignored by rootless operations).  Messages are addressed by
communicator-local rank and tagged by a *phase* that sender and
receiver derive alike.  An algorithm runs once per (communicator
shape, rank, root, nbytes): the compiled steps are cached and replayed
by every later call (:mod:`repro.mpi.schedule`).

Machines select algorithms by name (``MachineSpec.algorithms``), which
is how the per-machine behaviour differences the paper reports —
e.g. the Paragon's "least efficient schemes" for total exchange — are
expressed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = [
    "collective_algorithm",
    "get_algorithm",
    "algorithm_names",
    "virtual_rank",
    "absolute_rank",
]

_ALGORITHMS: Dict[str, Callable] = {}


def collective_algorithm(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering a collective algorithm under ``name``."""
    def register(function: Callable) -> Callable:
        if name in _ALGORITHMS:
            raise ValueError(f"algorithm {name!r} already registered")
        _ALGORITHMS[name] = function
        return function
    return register


def get_algorithm(name: str) -> Callable:
    """Look up a registered algorithm by name."""
    try:
        return _ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(_ALGORITHMS))
        raise KeyError(
            f"unknown collective algorithm {name!r}; "
            f"known: {known}") from None


def algorithm_names() -> List[str]:
    """All registered algorithm names, sorted."""
    return sorted(_ALGORITHMS)


def virtual_rank(rank: int, root: int, size: int) -> int:
    """Rank relative to ``root`` (root becomes virtual rank 0)."""
    return (rank - root) % size


def absolute_rank(vrank: int, root: int, size: int) -> int:
    """Inverse of :func:`virtual_rank`."""
    return (vrank + root) % size
