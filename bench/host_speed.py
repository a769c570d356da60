"""Host speed, read from a fixed pure-Python loop timed next to the calls.

A shared host runs the same code at speeds up to about 2x apart, in phases
from a tenth of a second to minutes, so the median time of one call moves
by more than a regression bound between runs of the same code. Timing this
loop before and after every call and scaling the call by
REFERENCE_SECONDS / (loop time) gives the call time at the speed at which
the loop takes REFERENCE_SECONDS: it removes the host's speed and keeps the
program's. The loop is interpreter work like the library's own, and the
library's call times follow its time with a log-log slope of 0.85 to 1.14
(moments, counting, branch and bound, sampling) on the reference machine.

The loop is part of the benchmark, never of the library, so a change to the
library cannot move it.
"""
from __future__ import annotations

from time import perf_counter

LOOPS = 10_000
REFERENCE_SECONDS = 0.5e-3  # the scaled figures are at a speed where the loop takes 0.5 ms
REPEATS = 3  # the median of three loops ignores one that was preempted


def _loop() -> int:
    s = 0
    for i in range(LOOPS):
        s += i & 7
    return s


def calibration_seconds() -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    return sorted(times)[REPEATS // 2]
