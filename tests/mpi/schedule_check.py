"""Static check of compiled collective schedules.

Compiles every rank's schedule (:mod:`repro.mpi.schedule`) for one
algorithm at one communicator size, root and message length, and
checks the step lists without simulating anything:

* every send has exactly one matching posted receive on
  ``(src, dst, phase)`` — no phase collides — and every posted receive
  is completed exactly once;
* a run-to-block pass over the step lists completes: sends are eager,
  a completion blocks until its message was sent, a hardware barrier
  blocks until every rank has arrived — so nothing deadlocks;
* the bytes sent equal the bytes received.

:func:`check` returns each rank's byte and message tallies, so tests
can assert exact byte movement at awkward sizes.  Run as a module it
sweeps every registered algorithm over a grid of sizes and roots::

    PYTHONPATH=src python -m tests.mpi.schedule_check          # tier-1 grid
    PYTHONPATH=src python -m tests.mpi.schedule_check --full   # p = 2..64
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.machines import PARAGON, SP2, T3D
from repro.mpi import MpiError
from repro.mpi.collectives import algorithm_names, get_algorithm
from repro.mpi.schedule import (
    COMBINE,
    HW_BARRIER,
    POST,
    SEND,
    WAIT,
    ScheduleScope,
    compile_schedule,
)

MACHINES = (SP2, T3D, PARAGON)
#: Communicator sizes of the tier-1 grid (the full grid is 2..64).
SIZES = (2, 3, 5, 7, 8, 12, 16)
#: Message lengths of the grid: empty, and one no size divides.
LENGTHS = (0, 1001)


@dataclass
class Tally:
    """What one rank moved in a checked schedule."""

    rank: int
    sent_bytes: int = 0
    received_bytes: int = 0
    combined_bytes: int = 0
    messages_sent: int = 0
    messages_received: int = 0


def _check_matching(schedules: Sequence[tuple]) -> None:
    sends: Counter = Counter()
    posts: Counter = Counter()
    for rank, steps in enumerate(schedules):
        slots = []
        waited = Counter()
        for step in steps:
            kind = step[0]
            if kind == SEND:
                _, phase, dst = step[:3]
                assert dst != rank, f"rank {rank} sends to itself"
                sends[(rank, dst, phase)] += 1
            elif kind == POST:
                _, phase, src = step
                posts[(src, rank, phase)] += 1
                slots.append(step)
            elif kind == WAIT:
                assert 0 <= step[1] < len(slots), \
                    f"rank {rank} waits on unposted receive {step[1]}"
                waited[step[1]] += 1
        assert all(waited[slot] == 1 for slot in range(len(slots))), \
            f"rank {rank} completes a posted receive other than once"
    collisions = sorted(key for key in set(sends) | set(posts)
                        if sends[key] > 1 or posts[key] > 1)
    assert not collisions, f"phase collisions on {collisions}"
    assert set(sends) == set(posts), (
        f"unmatched sends {sorted(set(sends) - set(posts))}, "
        f"unmatched receives {sorted(set(posts) - set(sends))}")


def _run_to_block(schedules: Sequence[tuple]) -> List[Tally]:
    size = len(schedules)
    tallies = [Tally(rank) for rank in range(size)]
    board = {}
    position = [0] * size
    posted: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
    arrived = [0] * size
    at_barrier = [False] * size
    running = set(range(size))
    while running:
        progressed = False
        for rank in sorted(running):
            steps = schedules[rank]
            tally = tallies[rank]
            while position[rank] < len(steps):
                step = steps[position[rank]]
                kind = step[0]
                if kind == SEND:
                    _, phase, dst, nbytes = step[:4]
                    board[(rank, dst, phase)] = nbytes
                    tally.sent_bytes += nbytes
                    tally.messages_sent += 1
                elif kind == POST:
                    posted[rank].append((step[2], step[1]))
                elif kind == WAIT:
                    src, phase = posted[rank][step[1]]
                    key = (src, rank, phase)
                    if key not in board:
                        break
                    tally.received_bytes += board.pop(key)
                    tally.messages_received += 1
                elif kind == COMBINE:
                    assert step[2] >= 0
                    tally.combined_bytes += step[2]
                elif kind == HW_BARRIER:
                    if not at_barrier[rank]:
                        arrived[rank] += 1
                        at_barrier[rank] = True
                        progressed = True
                    if min(arrived) < arrived[rank]:
                        break
                    at_barrier[rank] = False
                position[rank] += 1
                progressed = True
            else:
                running.discard(rank)
                progressed = True
        if not progressed:
            blocked = {rank: schedules[rank][position[rank]]
                       for rank in sorted(running)}
            raise AssertionError(f"deadlock: blocked at {blocked}")
    assert not board, f"messages never received: {board}"
    return tallies


def check(algorithm: Callable, size: int, nbytes: int, root: int = 0,
          spec=SP2) -> List[Tally]:
    """Statically check ``algorithm``'s schedules; return per-rank
    tallies.  Raises ``AssertionError`` on any violation."""
    scope = ScheduleScope(spec, size, is_world=True)
    schedules = [compile_schedule(algorithm, scope, rank, nbytes, root)
                 for rank in range(size)]
    _check_matching(schedules)
    tallies = _run_to_block(schedules)
    assert sum(t.sent_bytes for t in tallies) == \
        sum(t.received_bytes for t in tallies)
    return tallies


def check_algorithm(name: str, sizes: Sequence[int] = SIZES) -> int:
    """Check registered algorithm ``name`` at every size in ``sizes``,
    roots 0, 1 and p - 1 and every grid length, on each machine that
    can run it; returns the number of points checked.

    A machine that lacks the hardware the algorithm needs rejects it
    at compile time with :class:`MpiError`; at least one must not.
    """
    algorithm = get_algorithm(name)
    checked = 0
    for spec in MACHINES:
        for size in sizes:
            for root in sorted({0, 1, size - 1}):
                for nbytes in LENGTHS:
                    try:
                        check(algorithm, size, nbytes, root, spec)
                    except MpiError:
                        continue
                    except AssertionError as error:
                        raise AssertionError(
                            f"{name} on {spec.name} p={size} root={root} "
                            f"nbytes={nbytes}: {error}") from None
                    checked += 1
    assert checked, f"no machine compiles {name}"
    return checked


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="check p = 2..64 instead of the tier-1 sizes")
    args = parser.parse_args(argv)
    sizes = range(2, 65) if args.full else SIZES
    total = 0
    for name in algorithm_names():
        total += check_algorithm(name, sizes)
    print(f"schedule check: {len(algorithm_names())} algorithms, "
          f"{total} points OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
