"""How fast the host runs allocation-heavy Python right now.

The benchmark's host is shared: for seconds to minutes at a time, other
tenants slow every process on it by up to 1.6x, and wall times taken a
few minutes apart differ by more than any change worth measuring.  A
fixed reference kernel, timed next to each measured pass, sees the same
slowdown.  Times are then reported in *reference seconds*: the
measured seconds scaled by ``NOMINAL_CHUNK_S`` over the kernel's
measured chunk time, i.e. what the pass would have taken on the host at
its nominal speed.

The kernel is a tiny discrete-event loop (a heap of small objects, a
bounded table of results), so it leans on the same interpreter paths
as the simulator — allocation, tuples, ``heapq``, dict stores — while
sharing no code with it: no change to the program can move it.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import List

#: A typical chunk time of :func:`chunk` on a shared 2-core Intel Xeon
#: host under CPython 3.11 (4 ms when the host is idle, 7 ms when it is
#: busy).  Only its constancy matters: it fixes the scale of reference
#: seconds, never a comparison between commits.
NOMINAL_CHUNK_S = 0.0055


class _Event:
    __slots__ = ("when", "serial", "payload")

    def __init__(self, when: float, serial: int, payload: list) -> None:
        self.when = when
        self.serial = serial
        self.payload = payload


def chunk() -> int:
    """One fixed unit of reference work."""
    rng = random.Random(7)
    heap: list = []
    table: dict = {}
    for serial in range(3000):
        event = _Event(rng.random(), serial, [serial, str(serial),
                                              (serial, serial)])
        heapq.heappush(heap, (event.when, event.serial, event))
        if len(heap) > 500:
            _, key, event = heapq.heappop(heap)
            table[key % 4096] = event.payload
    return len(table)


def sample(seconds: float) -> List[float]:
    """Chunk times over about ``seconds`` (at least three chunks)."""
    times: List[float] = []
    started = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - started < seconds:
        chunk_started = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - chunk_started)
    return times


def scale(chunk_times: List[float]) -> float:
    """Factor from measured seconds to reference seconds: the nominal
    chunk time over the mean measured one.  The mean, not the median,
    because a pass pays for slow stretches in proportion to their
    length."""
    return NOMINAL_CHUNK_S * len(chunk_times) / sum(chunk_times)
