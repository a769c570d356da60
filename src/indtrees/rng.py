"""Counter-based random number streams.

Every trial gets its own Philox stream derived from (master, stream), so a
batch run produces identical results whether trials execute serially or on a
worker pool.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

_U64 = 1 << 64
_ZEROS = (0, 0, 0, 0)
_local = threading.local()  # .generator: this thread's reusable Generator


@dataclass(frozen=True)
class Seed:
    """Master seed plus a per-trial stream index; injective into RNG states.

    The library's own draws (the sampler's gaps and the greedy's raw words)
    reset the thread's one Philox to this stream with reset_generator(seed).
    generator() returns a new Generator with the same draws, for callers that
    keep one.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if type(self.master) is not int or not (0 <= self.master < _U64):
            raise ValueError("master seed must be an unsigned 64-bit integer")
        if type(self.stream) is not int or not (0 <= self.stream < _U64):
            raise ValueError("stream index must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """A new Generator on Philox keyed by the 128-bit master * 2^64 + stream."""
        key = self.master * _U64 + self.stream
        return np.random.Generator(np.random.Philox(key=key))


def reset_generator(seed: Seed) -> np.random.Generator:
    """This thread's one reusable Generator, reset to seed's stream.

    Its draws equal seed.generator()'s: the Philox state is set to the key
    words (stream, master), low word first, a zero counter and an empty
    buffer, the state Philox(key=...) starts in, for about a twentieth of
    the cost of a new Philox. The next call resets it again, so a caller
    takes all its draws before anything else may call this, and never lets
    the generator escape.
    """
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed.stream, seed.master)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
