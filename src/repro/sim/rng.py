"""Deterministic, named random-number streams.

Every source of randomness in the simulator (overhead jitter, node clock
offsets, warm-up penalties) draws from a stream keyed by a name, so that
adding a new consumer of randomness never perturbs the draws seen by
existing consumers.  Streams are derived from a single experiment seed,
making whole runs reproducible from one integer.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


def _derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for ``name`` under ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """Factory of independent named ``numpy.random.Generator`` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        try:
            return self._streams[name]
        except KeyError:
            # Generator(PCG64(seed)) builds the same stream as
            # default_rng(seed) (verified bit-for-bit) without the
            # extra seed-spawning bookkeeping — machine construction
            # creates thousands of streams for large node counts.
            generator = np.random.Generator(np.random.PCG64(
                _derive_seed(self.master_seed, name)))
            self._streams[name] = generator
            return generator

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw from ``[low, high)`` on stream ``name``."""
        return float(self.stream(name).uniform(low, high))
