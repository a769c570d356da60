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
_EXP_ZERO = -746.0  # math.exp(x) is exactly 0.0 below it


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
    """ln(sum(e**x for x in logs)); -inf on an empty input, m for a maximum m = ±inf.

    The bits are those of one plain sum() of math.exp(x - m) over all x, in
    order, with m the maximum: numpy's exp and pairwise sum would change the
    last bits, and a list and an array of the same values must give the same
    result. The differences x - m are made _BLOCK at a time, and those below
    _EXP_ZERO = -746 are left out: e**(x - m) is then below half the least
    positive float (5e-324 / 2 = e**-745.13), so math.exp gives exactly 0.0,
    and adding +0.0 to a partial sum of nonnegative terms leaves its bits
    unchanged, also under the compensated float sum() of Python >= 3.12.
    Most of a variance bound's entries are far below its maximum, so this
    skips most math.exp calls. NaN differences are kept: NaN propagates.
    """
    x = logs if isinstance(logs, np.ndarray) else np.fromiter(logs, dtype=float)
    if x.size == 0:
        return -math.inf
    m = float(x.max())
    if math.isinf(m):
        return m
    blocks = (x[a : a + _BLOCK] - m for a in range(0, x.size, _BLOCK))
    terms = chain.from_iterable(map(math.exp, d[~(d < _EXP_ZERO)].tolist()) for d in blocks)
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
