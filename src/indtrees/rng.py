"""Counter-based random number streams.

Every trial gets its own Philox stream derived from (master, stream), so a
batch run produces identical results whether trials execute serially or on a
worker pool.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = 1 << 64


@dataclass(frozen=True)
class Seed:
    """Master seed plus a per-trial stream index; injective into RNG states."""

    master: int
    stream: int = 0

    def __post_init__(self):
        if type(self.master) is not int or not (0 <= self.master < _U64):
            raise ValueError("master seed must be an unsigned 64-bit integer")
        if type(self.stream) is not int or not (0 <= self.stream < _U64):
            raise ValueError("stream index must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        # Philox takes a 128-bit key; (master, stream) -> key is injective.
        key = self.master * _U64 + self.stream
        return np.random.Generator(np.random.Philox(key=key))
