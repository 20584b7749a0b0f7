"""Scan (prefix reduction) algorithms.

``recursive_doubling_scan`` is the textbook O(log p) prefix algorithm
and matches the logarithmic startup the paper fits on all machines.

``offloaded_scan`` models the Paragon anomaly the paper highlights:
its scan is *faster* than the T3D's from 16 nodes up, which the
authors attribute to "different collective algorithms used".  We model
an NX-native combining tree that runs on the message coprocessor: the
same recursive-doubling message pattern, but each message costs only
the offload engine's per-round and per-byte charges instead of the full
host send/receive path.
"""

from __future__ import annotations

from typing import Optional

from ..errors import MpiError
from .base import collective_algorithm

__all__ = ["recursive_doubling_scan", "offloaded_scan"]


def _scan_pattern(s, nbytes: int, sw_cost_us: Optional[float],
                  combine_on_host: bool) -> None:
    """Shared recursive-doubling message pattern.

    In round ``r`` (mask ``2**r``), rank ``i`` sends its running
    partial to ``i + mask`` and receives from ``i - mask``, combining
    the received operand into both the partial and (since the sender is
    a lower rank) the local prefix result.
    """
    rank, size = s.rank, s.size
    mask = 1
    while mask < size:
        phase = mask.bit_length()
        posted = None
        if rank - mask >= 0:
            posted = s.post(phase, rank - mask)
        if rank + mask < size:
            s.send(phase, rank + mask, nbytes, "scan",
                   sw_cost_us=sw_cost_us)
        if posted is not None:
            s.wait(posted, "scan", sw_cost_us=sw_cost_us)
            if combine_on_host:
                s.combine(nbytes)
        mask <<= 1


@collective_algorithm("recursive_doubling_scan")
def recursive_doubling_scan(s, nbytes: int, root: int = 0) -> None:
    """Recursive-doubling scan through the host messaging path."""
    _scan_pattern(s, nbytes, sw_cost_us=None, combine_on_host=True)


@collective_algorithm("offloaded_scan")
def offloaded_scan(s, nbytes: int, root: int = 0) -> None:
    """Coprocessor-offloaded scan (Paragon NX native path).

    Same message pattern, but each message's software cost is the
    machine's ``offload_round_us``/``offload_us_per_byte`` (split
    between the send and receive halves), bypassing the host kernel
    path and its buffer copies.
    """
    software = s.spec.software
    if software.offload_round_us is None or \
            software.offload_us_per_byte is None:
        raise MpiError(f"{s.spec.name} has no offloaded combining path")
    if software.offload_setup_us > 0:
        s.delay(software.offload_setup_us)
    half_cost = (software.offload_round_us +
                 nbytes * software.offload_us_per_byte) / 2.0
    _scan_pattern(s, nbytes, sw_cost_us=half_cost, combine_on_host=False)
