"""Log-domain helpers.

Quantities like C(n,k) * k^(k-2) * p^(k-1) * (1-p)^(C(k,2)-k+1) overflow or
underflow 64-bit floats long before the interesting parameter range, so all
moment formulas are evaluated as natural logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


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
    """ln(sum(e**x for x in logs)); -inf on an empty input."""
    logs = list(logs)
    if not logs:
        return -math.inf
    m = max(logs)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(x - m) for x in logs))


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
