"""Compiled collective schedules: each rank's message pattern, built once.

A collective's message pattern is fixed by the algorithm, the
communicator (its size, its node mapping, and the few machine
parameters an algorithm reads), the rank, the root and the message
length.  The paper's Section 2 loop calls the same collective over and
over, so the pattern is compiled once into a flat tuple of *steps* and
the compiled schedule is reused by every later call — in any world —
with the same inputs (the split between precomputing a schedule and
executing it that Träff et al., arXiv:1606.07676, use).

An algorithm is a plain function ``algorithm(s, nbytes, root)`` that
appends steps to a :class:`ScheduleBuilder` ``s`` (see
:mod:`repro.mpi.collectives.base`).  A step is a tuple whose first
item is its kind:

``(SEND, phase, dst, nbytes, op, buffered, sw_cost_us)``
    Issue one message of collective phase ``phase`` to node ``dst``.
``(POST, phase, src)``
    Post a receive for phase ``phase`` from node ``src``; posted
    receives are numbered in the order they are posted.
``(WAIT, slot, op, buffered, sw_cost_us)``
    Complete posted receive number ``slot``.
``(COMBINE, cost_us, nbytes)``
    Apply the reduction operator to one ``nbytes`` operand.
``(DELAY, base_us)``
    Spend jittered CPU time.
``(HW_BARRIER,)``
    Arrive at the machine's barrier wire and wait for its release.

Ranks in steps are node indices: the communicator's node mapping is
resolved at compile time.  :meth:`RankContext.collective
<repro.mpi.context.RankContext.collective>` executes a schedule.

The cache key covers everything a builder exposes — the algorithm
name, the rank, root and message length, and the communicator's
:class:`ScheduleScope` — so a schedule can never be reused where its
algorithm could have compiled differently.  The cache holds no machine
spec, world or communicator, and it is bounded by its total step
count.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from .collectives import get_algorithm
from .errors import RankError

__all__ = [
    "COMBINE",
    "DELAY",
    "HW_BARRIER",
    "POST",
    "SEND",
    "WAIT",
    "SCHEDULES",
    "ScheduleBuilder",
    "ScheduleCache",
    "ScheduleScope",
    "compile_schedule",
]

SEND, POST, WAIT, COMBINE, DELAY, HW_BARRIER = range(6)

Schedule = Tuple[tuple, ...]


class ScheduleScope:
    """What a communicator's schedules depend on besides the call.

    Holds the only machine-spec facts an algorithm may read — the
    machine's name (error texts), its software costs, its barrier wire
    and its fixed algorithm map — and the communicator's size, whether
    it spans the machine, and its node mapping (``None`` when local
    rank ``i`` runs on node ``i``).  Scopes compare and hash by value,
    so schedules are shared by every world built from equal specs.
    """

    __slots__ = ("name", "software", "barrier_wire", "algorithms", "size",
                 "is_world", "world_ranks", "_key", "_hash")

    def __init__(self, spec, size: int, is_world: bool,
                 world_ranks: Optional[Sequence[int]] = None):
        self.name = spec.name
        self.software = spec.software
        self.barrier_wire = spec.barrier_wire
        self.algorithms = tuple(sorted(spec.algorithms.items()))
        self.size = size
        self.is_world = is_world
        if world_ranks is not None and \
                list(world_ranks) == list(range(size)):
            world_ranks = None
        self.world_ranks = None if world_ranks is None \
            else tuple(world_ranks)
        self._key = (self.name, self.software, self.barrier_wire,
                     self.algorithms, size, is_world, self.world_ranks)
        self._hash = hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (other.__class__ is ScheduleScope and
                                 self._key == other._key)

    def algorithm_for(self, op: str) -> str:
        """The machine's fixed algorithm name for ``op`` (what a
        composite collective runs for its stages)."""
        for name, algorithm in self.algorithms:
            if name == op:
                return algorithm
        raise KeyError(f"{self.name} defines no algorithm for {op!r}")


class ScheduleBuilder:
    """Collects one rank's steps while its algorithm runs.

    Algorithms read ``rank``, ``size``, ``is_world`` and ``spec`` (the
    communicator's :class:`ScheduleScope`) and address communicator-
    local ranks; phases are shifted by ``phase_offset``, which lets
    the stages of a composite collective share one sequence number
    without tag collisions.
    """

    __slots__ = ("spec", "rank", "size", "is_world", "phase_offset",
                 "steps", "_posts")

    def __init__(self, scope: ScheduleScope, rank: int):
        if not 0 <= rank < scope.size:
            raise RankError(rank, scope.size)
        self.spec = scope
        self.rank = rank
        self.size = scope.size
        self.is_world = scope.is_world
        self.phase_offset = 0
        self.steps: list = []
        self._posts = 0

    def _node(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise RankError(rank, self.size)
        world_ranks = self.spec.world_ranks
        return rank if world_ranks is None else world_ranks[rank]

    def send(self, phase: int, dst: int, nbytes: int, op: str,
             buffered: bool = False,
             sw_cost_us: Optional[float] = None) -> None:
        """Send ``nbytes`` to local rank ``dst`` in phase ``phase``."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        self.steps.append((SEND, phase + self.phase_offset,
                           self._node(dst), nbytes, op, buffered,
                           sw_cost_us))

    def post(self, phase: int, src: int) -> int:
        """Post a receive from local rank ``src``; returns the handle
        :meth:`wait` completes."""
        self.steps.append((POST, phase + self.phase_offset,
                           self._node(src)))
        self._posts += 1
        return self._posts - 1

    def wait(self, slot: int, op: str, buffered: bool = False,
             sw_cost_us: Optional[float] = None) -> None:
        """Complete the receive :meth:`post` returned ``slot`` for."""
        if not 0 <= slot < self._posts:
            raise ValueError(f"no posted receive {slot}")
        self.steps.append((WAIT, slot, op, buffered, sw_cost_us))

    def recv(self, phase: int, src: int, op: str, buffered: bool = False,
             sw_cost_us: Optional[float] = None) -> None:
        """Blocking receive: :meth:`post` then :meth:`wait`."""
        self.wait(self.post(phase, src), op, buffered, sw_cost_us)

    def combine(self, nbytes: int) -> None:
        """Apply the reduction operator to one ``nbytes`` operand."""
        software = self.spec.software
        self.steps.append((COMBINE, software.reduce_round_us +
                           nbytes * software.reduce_us_per_byte, nbytes))

    def delay(self, base_us: float) -> None:
        """Spend ``base_us`` of jittered CPU time."""
        self.steps.append((DELAY, base_us))

    def hardware_barrier(self) -> None:
        """Synchronize on the machine's barrier wire."""
        self.steps.append((HW_BARRIER,))


def compile_schedule(algorithm: Callable, scope: ScheduleScope, rank: int,
                     nbytes: int, root: int = 0) -> Schedule:
    """Run ``algorithm`` for ``rank`` of ``scope``; return its steps."""
    builder = ScheduleBuilder(scope, rank)
    algorithm(builder, nbytes, root)
    return tuple(builder.steps)


class ScheduleCache:
    """Compiled schedules, shared across worlds, bounded by steps.

    Each stored schedule costs its step count plus one (so empty
    schedules count too).  When storing one would push the total past
    ``max_steps``, the oldest schedules are dropped first; a schedule
    larger than the whole bound is run without being stored.
    ``compiles`` counts the schedules compiled so far.
    """

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps = 0
        self.compiles = 0
        self._entries: Dict[Hashable, Schedule] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, algorithm: str, scope: ScheduleScope, rank: int,
            nbytes: int, root: int) -> Schedule:
        """The schedule of ``rank`` running ``algorithm``, compiled on
        first use."""
        key = (algorithm, rank, nbytes, root, scope)
        schedule = self._entries.get(key)
        if schedule is None:
            schedule = compile_schedule(get_algorithm(algorithm), scope,
                                        rank, nbytes, root)
            self.compiles += 1
            self._store(key, schedule)
        return schedule

    def _store(self, key: Hashable, schedule: Schedule) -> None:
        cost = len(schedule) + 1
        if cost > self.max_steps:
            return
        entries = self._entries
        while self.steps + cost > self.max_steps:
            oldest = next(iter(entries))
            self.steps -= len(entries.pop(oldest)) + 1
        entries[key] = schedule
        self.steps += cost


#: The process-wide schedule cache every communicator draws from.  The
#: bound holds every schedule of a p = 32 alltoall cell (about 3,000
#: steps) twice over, at roughly 100 bytes a step.
SCHEDULES = ScheduleCache(max_steps=1 << 13)
