"""Log-domain helpers.

Quantities like C(n,k) * k^(k-2) * p^(k-1) * (1-p)^(C(k,2)-k+1) overflow or
underflow 64-bit floats long before the interesting parameter range, so all
moment formulas are evaluated as natural logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

_BLOCK = 1024


@dataclass(frozen=True)
class LogReal:
    """A nonnegative real stored as its natural log; -inf is zero."""

    logmag: float

    def to_float(self) -> float:
        try:
            return math.exp(self.logmag)
        except OverflowError:
            return math.inf


def log_sum_exp(logs) -> float:
    """ln(sum(e**x for x in logs)); -inf on an empty input.

    One sum() over math.exp's terms, in order: numpy's exp and pairwise sum
    would change the last bits, and a list and an array of the same values
    must give the same result. The terms are made _BLOCK at a time.
    """
    x = logs if isinstance(logs, np.ndarray) else np.fromiter(logs, dtype=float)
    if x.size == 0:
        return -math.inf
    m = float(x.max())
    if m == -math.inf:
        return -math.inf
    terms = chain.from_iterable(
        map(math.exp, (x[a : a + _BLOCK] - m).tolist()) for a in range(0, x.size, _BLOCK)
    )
    return m + math.log(sum(terms))


def pow_log(base: float, exponent: float) -> float:
    """ln(base**exponent) with the 0**0 == 1 convention; base >= 0."""
    if base < 0:
        raise ValueError("negative base")
    if base == 0:
        if exponent == 0:
            return 0.0
        if exponent < 0:
            raise ZeroDivisionError("zero to a negative power")
        return -math.inf
    return exponent * math.log(base)
