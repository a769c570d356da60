"""Log-domain evaluation of the first/second moment formulas.

Expected counts of induced k-trees, the Stirling-asymptotic exponent and its
root k_hat, the floor threshold, and the per-overlap variance-ratio bounds in
both the sparse and the dense edge-probability regimes. Quantities like
C(n,k) k^(k-2) p^(k-1) (1-p)^(C(k,2)-k+1) overflow or underflow 64-bit floats
long before the interesting parameter range, so all of them are natural logs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal
from itertools import chain, repeat
from math import comb, e, lgamma, log, log1p, pi
from typing import Iterator

import numpy as np

from .counting import ONE_MINUS_INV_E, product_bound_max_ell

KHAT_TOL = 1e-9
STIRLING_MIN_M = 1000  # below it, lgamma differences are exact to ~1e-13 relative
NEAR_TIE_EPS = 1e-6
DEFAULT_DELTA = 0.5
THETA_UPPER = (math.e - 2) / (3 * math.e - 2)  # the theorem's p = n^-theta has 0 < theta < this
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


def _check_p(p: float) -> None:
    if math.isnan(p) or not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")


def _check_n(n: int) -> None:
    # the formulas take logs of n, n*p and ln n, so n must be >= 2 and a float
    if not (2 <= n <= sys.float_info.max):
        raise ValueError(f"n must be in [2, {sys.float_info.max:.4g}], got {n}")


def log_binom(n: float, k: float) -> float:
    """ln C(n, k), to a relative error of about 1e-13 at every n.

    lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) cancels terms of size n ln n:
    it is off by 0.5 nats at n = 1e15 (k = 200) and by 2e7 nats at n = 1e50
    (k = 2e5). So once the larger side m = n - k (k the smaller side) reaches
    STIRLING_MIN_M, ln(n!/m!) comes from Stirling's series with
    ln m = ln n + log1p(-k/n):

        k ln n - (m + 1/2) log1p(-k/n) - k + S(n) - S(m),
        S(x) = 1/(12x) - 1/(360x^3), the next term below 1e-18 at x >= 1000,

    and no n ln n term is ever formed.
    """
    if k < 0 or k > n:
        return -math.inf
    if 2 * k > n:
        k = n - k
    m = n - k
    if m < STIRLING_MIN_M:
        return lgamma(n + 1) - lgamma(k + 1) - lgamma(m + 1)
    a, b = 1.0 / n, 1.0 / m
    return (
        k * log(n)
        - (m + 0.5) * log1p(-k * a)
        - k
        - lgamma(k + 1)
        + (a - b) * (1 / 12 - (a * a + a * b + b * b) / 360)
    )


def log_expected_trees(n: int, p: float, k: int) -> LogReal:
    """ln E X_k for X_k = number of induced k-vertex trees in G(n,p):
    C(n,k) k^(k-2) p^(k-1) (1-p)^(C(k,2)-k+1)."""
    _check_p(p)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    lg = (
        log_binom(n, k)
        + (k - 2) * log(k)
        + (k - 1) * log(p)
        + (comb(k, 2) - k + 1) * log1p(-p)
    )
    return LogReal(lg)


def gamma(n: int, p: float, k: float) -> float:
    """Stirling asymptotic of ln E X_k, valid at real k > 1."""
    _check_p(p)
    if k <= 1:
        raise ValueError(f"gamma requires k > 1, got {k}")
    L = -log1p(-p)  # ln(1/(1-p))
    return (
        -0.5 * log(2 * pi)
        + k * log(n)
        + k
        - 2.5 * log(k)
        + (k - 1) * (log(p) + L)
        - (k * (k - 1) / 2) * L
    )


def gamma_derivative(n: int, p: float, k: float) -> float:
    L = -log1p(-p)
    return log(n) + 1 - 2.5 / k + log(p) + L - (k - 0.5) * L


def k_star(n: int, p: float) -> float:
    """Anchor value: gamma at k_star is already negative."""
    _check_p(p)
    L = -log1p(-p)
    return (2.0 / L) * (log(n * p) + 1 + 1.5 * L)


def k_hat_closed_form(n: int, p: float) -> float:
    """2 log_{1/(1-p)}(enp) + 3 ln p / (2 ln(np)) + 3, the o(1) term dropped."""
    L = -log1p(-p)
    return 2 * log(e * n * p) / L + 3 * log(p) / (2 * log(n * p)) + 3


class BracketError(ValueError):
    """The root bracket for k_hat failed; (n, p) outside the supported range."""


def _gamma_rounding(n: int, p: float, k: float) -> float:
    """Float64 resolution of gamma(n, p, k): 8 ulps of the sum of its terms' sizes.

    gamma adds terms of size k ln n and k^2 ln(1/(1-p)) / 2. Once their
    rounding exceeds KHAT_TOL (at n = 1e46 with p = n^-0.058, for one), no
    float k brings |gamma| below KHAT_TOL.
    """
    L = -log1p(-p)
    size = k * (log(n) + 1) + (k - 1) * abs(log(p) + L) + (k * (k - 1) / 2) * L
    return 8 * sys.float_info.epsilon * size


def _bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi], keeping f > 0 at lo and f <= 0 at hi, at most 200 times.

    Returns (mid, mid) at the first midpoint with |f(mid)| <= tol (never, for
    tol = -inf), or the bracket once its ends are adjacent floats: from there
    every midpoint rounds to an end and the bracket cannot shrink further.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid, mid
        if mid in (lo, hi):
            break
        if fm > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_k_hat(n: int, p: float) -> float:
    """Bisection root of gamma on [argmax gamma + 1, k_star].

    The root has |gamma| <= KHAT_TOL = 1e-9 wherever a float k reaches that;
    where gamma's rounding is coarser, bisection runs until the bracket ends are
    adjacent floats and the root is within _gamma_rounding of zero.
    """
    _check_p(p)
    _check_n(n)
    ks = k_star(n, p)
    if ks <= 2:
        raise BracketError(f"k_star = {ks:.4g} <= 2 at n={n}, p={p}")
    g_ks = gamma(n, p, ks)
    if g_ks >= 0:
        rounding = _gamma_rounding(n, p, ks)
        if g_ks <= rounding:
            raise BracketError(
                f"n={n:.3g} is beyond float64 resolution for p={p}: "
                f"gamma(k_star) = {g_ks:.3g} is within its rounding error {rounding:.3g}"
            )
        raise BracketError(f"gamma(k_star) = {g_ks:.3g} >= 0 at n={n}, p={p}")
    # locate the maximizer: gamma' changes sign from + to - before k_star
    lo, hi = 1.0 + 1e-9, ks
    if gamma_derivative(n, p, lo) <= 0 or gamma_derivative(n, p, hi) >= 0:
        raise BracketError(f"gamma' does not change sign on (1, k_star) at n={n}, p={p}")
    lo, hi = _bisect(lambda k: gamma_derivative(n, p, k), lo, hi, -math.inf)
    k_max = 0.5 * (lo + hi)

    lo = min(k_max + 1, ks - 1e-12)
    hi = ks
    if gamma(n, p, lo) <= 0:
        raise BracketError(f"gamma({lo:.4g}) <= 0; no positive bracket end at n={n}, p={p}")
    lo, hi = _bisect(lambda k: gamma(n, p, k), lo, hi, KHAT_TOL)
    root = min((lo, hi), key=lambda k: abs(gamma(n, p, k)))
    g_root = gamma(n, p, root)
    if abs(g_root) > max(KHAT_TOL, _gamma_rounding(n, p, root)):
        raise BracketError(f"bisection stalled: gamma = {g_root:.3g} at n={n}, p={p}")
    return root


@dataclass(frozen=True)
class Threshold:
    value: int
    raw: float  # the un-floored expression
    near_tie: bool  # fractional part within 1e-6 of an integer: floor untrustworthy


def g_threshold(n: int, p: float, delta: float) -> Threshold:
    """floor(2 log_{1/(1-p)}(enp) + delta), with a floor-instability flag."""
    _check_p(p)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if n * p <= 1:
        raise ValueError(f"need np > 1, got np = {n * p}")
    L = -log1p(-p)
    raw = 2 * log(e * n * p) / L + delta
    frac = raw - math.floor(raw)
    return Threshold(math.floor(raw), raw, min(frac, 1 - frac) < NEAR_TIE_EPS)


@dataclass(frozen=True)
class PartitionPoints:
    ell_star: float
    k_minus_w_over_p: float
    k_minus_half_p: float
    ell_1: float
    w: float


def partition_points(n: int, p: float, k: float) -> PartitionPoints:
    """Boundaries of the four-part split of overlap sizes, plus the dense-regime ones."""
    _check_n(n)
    _check_p(p)
    if not (2 <= k <= n):
        # Decimal formats an int past the float range, where '.15g' overflows
        raise ValueError(f"need 2 <= k <= n, got k={Decimal(k):.15g}")
    w = log(n) ** 0.25  # part 2 of the sparse split ends at k - w/p
    L = -log1p(-p)
    ell_star = (2 * log(n * p) - 2 * log(4 * e * k)) / L
    ell_1 = (2 * log(n) - 16 * log(log(n))) / L
    return PartitionPoints(ell_star, k - w / p, k - 1 / (2 * p), ell_1, w)


@dataclass(frozen=True)
class MomentProfile:
    """The record `moments profile` prints: its fields are the keys, in order."""

    n: int
    p: float
    b: float  # 1/(1-p)
    k_star: float
    k_hat: float
    epsilon: float  # k_star - k_hat
    k_hat_closed_form: float
    closed_form_gap: float
    delta: float
    g: int  # g_threshold's floor, its un-floored value and its near-tie flag
    g_raw: float
    g_near_tie: bool
    k: int  # target_k(k_hat, delta), the size the second moment targets
    ell_star: float
    ell_1: float
    ell_2: float  # k - 3(1-p)/p: reported here, read by no bound
    w: float

    def to_dict(self) -> dict:
        return asdict(self)


def target_k(k_hat: float, delta: float = DEFAULT_DELTA) -> int:
    return math.floor(k_hat - 1 + delta)  # the tree size the second moment targets


def compute_profile(n: int, p: float, delta: float = DEFAULT_DELTA) -> MomentProfile:
    root = solve_k_hat(n, p)
    thr = g_threshold(n, p, delta)
    k = target_k(root, delta)
    pts = partition_points(n, p, k)
    ks = k_star(n, p)
    cf = k_hat_closed_form(n, p)
    return MomentProfile(
        n=n,
        p=p,
        b=1 / (1 - p),
        k_star=ks,
        k_hat=root,
        epsilon=ks - root,
        k_hat_closed_form=cf,
        closed_form_gap=root - cf,
        delta=delta,
        g=thr.value,
        g_raw=thr.raw,
        g_near_tie=thr.near_tie,
        k=k,
        ell_star=pts.ell_star,
        ell_1=pts.ell_1,
        ell_2=k - 3 * (1 - p) / p,
        w=pts.w,
    )


# ---------------------------------------------------------------------------
# variance-ratio bounds


@dataclass(frozen=True, eq=False)  # no __eq__: entries is an ndarray
class VarianceBound:
    n: int
    p: float
    k: int
    regime: str  # "sparse" (p < 1/(2 ln n)) or "dense"
    entries: np.ndarray  # float64; entries[ell - 2] is the log summand at ell, 2 <= ell < k
    parts: tuple[tuple[str, int, int], ...]  # (part, lo, hi): lo <= ell < hi, from 2 to k
    part_log_sums: dict[str, float]  # -inf for an empty part
    log_total: float

    def rows(self) -> Iterator[tuple[str, int, float]]:
        """(part, ell, log summand) for each ell, as Python str, int and float
        (a numpy scalar's repr would change the CSV), _BLOCK ells at a time."""
        for name, lo, hi in self.parts:
            for a in range(lo, hi, _BLOCK):
                b = min(a + _BLOCK, hi)
                yield from zip(repeat(name), range(a, b), self.entries[a - 2 : b - 2].tolist())


# Each part is evaluated over a block of up to _BLOCK overlaps at once, with
# every entry equal to its scalar formula's bits:
# - log, log1p, lgamma and ** go through math (or float.__pow__) one element
#   at a time, log and lgamma at integers through _INT_TABLES; numpy's log,
#   log1p and power round differently in the last ulp;
# - every sum and product keeps the scalar expression's left-to-right order;
# - n - k - (k - ell) is exact: int64 below 2**62 (so 2 * j cannot overflow),
#   Python ints above.
_BLOCK = 4096
_INT64_EXACT = 2**62
# math.log(j) and math.lgamma(j) at j = 0, 1, ... (entry 0 is never read),
# shared by every call in the process. Each table grows to the largest j asked
# for, up to _TABLE_CAP entries (256 KiB of float64 each), a limit set by
# memory; an array reaching past it is computed whole, per call.
_TABLE_CAP = 2**15
_INT_TABLES = {log: np.array([math.nan]), lgamma: np.array([math.nan])}


def _each(f, x: np.ndarray) -> np.ndarray:
    """f (a scalar math function) at each element of x."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def _at_ints(f, j: np.ndarray) -> np.ndarray:
    """f(j), for f math.log or math.lgamma, at each integer j >= 1 of an int64
    array. The tables hold f at exact floats, and math.log(j) and
    math.lgamma(j) convert an int j < 2**53 to a float first: same bits."""
    table = _INT_TABLES[f]
    top = int(j.max(initial=0)) + 1
    want = min(top, _TABLE_CAP)
    if want > table.size:
        more = _each(f, np.arange(float(table.size), want))
        table = _INT_TABLES[f] = np.concatenate((table, more))
    return table[j] if top <= table.size else _each(f, j)


def _pairs(ell: np.ndarray) -> np.ndarray:
    return ell * (ell - 1) // 2  # comb(ell, 2)


class _OverlapTerms:
    """log_binom and the per-part log summands at arrays of overlap sizes ell."""

    def __init__(self, n: int, p: float, k: int):
        self.n, self.p, self.k = n, p, k
        self.log1p_p = log1p(-p)
        self.log_p = log(p)
        self.log_k = log(k)
        self.log_cnk = log_binom(n, k)

    def log_binom(self, n: int, j: np.ndarray, lg_j: np.ndarray) -> np.ndarray:
        """log_binom(n, j) at each j >= 0 of an int64 array, for n <= 1e308,
        given lg_j = lgamma(j + 1)."""
        out = np.full(j.size, -math.inf)
        if n < _INT64_EXACT:
            ok = j <= n
            swap = 2 * j > n  # then n - j is the smaller side
            m = np.where(swap, j, n - j)  # the larger side
            small = ok & (m < STIRLING_MIN_M)
            lg_nj = np.zeros(j.size)  # lgamma(n - j + 1), where it is read
            need = ok & (swap | small)
            lg_nj[need] = _at_ints(lgamma, n - j[need] + 1)
            lg_lo = np.where(swap, lg_nj, lg_j)  # lgamma(n - m + 1)
            if small.any():
                out[small] = lgamma(n + 1) - lg_lo[small] - np.where(swap, lg_j, lg_nj)[small]
            big = ok & ~small
            j, m, lg_j = (n - m)[big], m[big], lg_lo[big]
        else:
            # j <= k is far below n / 2: no swap, and m = n - j >= STIRLING_MIN_M.
            # float(n - j) falls with j, so when the block's two ends round to
            # the same float, so does every entry between them.
            big = slice(None)
            if j.size and (top := float(n - int(j.min()))) == float(n - int(j.max())):
                m = np.full(j.size, top)
            else:
                m = np.fromiter(map(float, map(n.__sub__, j.tolist())), float, j.size)
        if j.size:
            a, b = 1.0 / n, 1.0 / m
            out[big] = (
                j * log(n)
                - (m + 0.5) * _each(log1p, -j * a)
                - j
                - lg_j
                + (a - b) * (1 / 12 - (a * a + a * b + b * b) / 360)
            )
        return out

    def shared(self, ell: np.ndarray) -> np.ndarray:
        """log C(k, ell) C(n-k, k-ell) as log_binom(k, s) + log_binom(n-k, s),
        s = k - ell: log_binom(k, ell) is log_binom(k, s) to the bit, and
        lgamma(s + 1) is looked up once for both."""
        s = self.k - ell
        lg_s = _at_ints(lgamma, s + 1)
        return self.log_binom(self.k, s, lg_s) + self.log_binom(self.n - self.k, s, lg_s)

    def part1(self, ell: np.ndarray) -> np.ndarray:
        # ln k + ell (1 + 2 ln k + (1 - ell/2) ln(1-p) - ln n - ln ell - ln p)
        return self.log_k + ell * (
            1 + 2 * self.log_k + (1 - ell / 2) * self.log1p_p
            - log(self.n) - _at_ints(log, ell) - self.log_p
        )

    def f_hat(self, ell: np.ndarray) -> np.ndarray:
        # C(k,l) C(n-k,k-l) (1-p)^(-C(l,2)) (k-l)^(k-2) (l+1)^(k-l-1) / (C(n,k) k^(k-3))
        k = self.k
        return (
            self.shared(ell)
            - _pairs(ell) * self.log1p_p
            + (k - 2) * _at_ints(log, k - ell)
            + (k - ell - 1) * _at_ints(log, ell + 1)
            - self.log_cnk
            - (k - 3) * self.log_k
        )

    def part3(self, ell: np.ndarray) -> np.ndarray:
        # H(ell) evaluated at the real maximizer r* = ell - (beta*ell*p/e)^(2/3) / p
        k, p = self.k, self.p
        beta = (k - ell) * p
        lam = np.fromiter(
            map(pow, (beta * ell * p / e).tolist(), repeat(2.0 / 3.0)), float, ell.size
        )
        r_star = ell - lam / p
        gap = ell - r_star  # lam / p > 0
        log_ell = _at_ints(log, ell)
        return (
            self.shared(ell)
            - self.log_cnk
            + log_ell
            + r_star * (self.log1p_p - self.log_p)
            - 2 * (k - 2) * self.log_k
            - _pairs(ell) * self.log1p_p
            + gap
            + (3 * ell - 2 * r_star - 1) * log_ell
            + (3 * (r_star - ell) + 1) * _each(log, gap)
            + 2 * (k - ell - 1) * _at_ints(log, ell + 1)
            + 2 * (k - r_star - 2) * _at_ints(log, k - ell)
        )

    def part4(self, ell: np.ndarray) -> np.ndarray:
        k, p = self.k, self.p
        s = k - ell
        log_s_term = np.where(s == 1, 0.0, (s - 2) * _at_ints(log, s))  # (k-l)^(k-l-2)
        return (
            self.shared(ell)
            - self.log_cnk
            - (k - 2) * self.log_k
            - _pairs(ell) * self.log1p_p
            + _at_ints(log, ell)
            + ell * (self.log1p_p - self.log_p)
            + (s - 1) * _at_ints(log, ell + 1)
            + log_s_term
            + ell * s * p / (e * (1 - p))
        )

    def trivial(self, ell: np.ndarray) -> np.ndarray:
        return (
            self.shared(ell)
            - self.log_cnk
            - _pairs(ell) * self.log1p_p
            + ell * (self.log1p_p - self.log_p)
        )

    def tail(self, ell: np.ndarray) -> np.ndarray:
        # s = k - ell vertices are unshared; maximize f1(k, r) over integer r
        k, p = self.k, self.p
        s = k - ell
        base = (
            self.shared(ell)
            + s * k * self.log1p_p
            + s * self.log_k
            - log_expected_trees(self.n, p, k).logmag
        )
        log_ps = self.log_p - self.log1p_p + _at_ints(log, s)
        best = [self._f1_max(l, lps) for l, lps in zip(ell.tolist(), log_ps.tolist())]
        return base + np.array(best)

    def _f1_max(self, ell: int, log_ps: float) -> float:
        """max over 0 <= r < ell of f1(r) = f0(k, r) + (k - r) ln(ps / (1 - p)).

        A numpy screen evaluates f1 at every r. Below top it only multiplies
        and adds exact integers and Python float constants, so those values
        are f1 to the bit. The top branch uses np.log, which differs from
        math.log by a few ulps, so each screened value is within about 1e-15
        of S(r) = f0(r) + (k - r) |ln(ps / (1 - p))| of f1(r), far inside
        delta / 2 with delta = 1e-9 (max f0 + k |ln(ps / (1 - p))|) >= 1e-9
        max_r S(r). Let M be the screen's maximum, at r_M. The argmax r* of
        f1 screens above f1(r*) - delta / 2 >= f1(r_M) - delta / 2 >=
        M - delta, so it is among the candidates, the r that screen at or
        above M - delta. Only the candidates at r >= top are re-evaluated,
        with math.log, and the largest candidate value is the full scan's
        maximum, to the bit. A flat row only makes more candidates. r is a
        float array: its values are exact integers.
        """
        k = self.k
        r = np.arange(float(ell))
        mid = math.ceil(ell / 2)  # first r >= ell / 2
        top = math.ceil(ell * ONE_MINUS_INV_E)  # first r >= ell (1 - 1/e)
        f0 = np.empty(ell)
        f0[:mid] = r[:mid] * log(2)
        f0[mid:top] = k * log(4 / 3) + r[mid:top] * log(9 / 8)
        k_r = k - r
        f0[top:] = k_r[top:] * np.log(ell / (ell - r[top:]))
        screen = f0 + k_r * log_ps
        delta = 1e-9 * (f0.max() + k * abs(log_ps))
        near = np.flatnonzero(screen >= screen.max() - delta).tolist()
        return max(
            (k - j) * log(ell / (ell - j)) + (k - j) * log_ps if j >= top else screen.item(j)
            for j in near
        )


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


def _part_ranges(p: float, k: int, sparse: bool, pts: PartitionPoints):
    """(part, lo, hi, summand): the part holds lo <= ell < hi."""
    t = _OverlapTerms
    if sparse:
        cuts = (
            ("part1", pts.ell_star, t.part1),
            ("part2", pts.k_minus_w_over_p, t.f_hat),
            ("part3", pts.k_minus_half_p, t.part3),
            ("part4", k, t.part4),
        )
    else:
        cuts = (
            ("trivial", pts.ell_1, t.trivial),
            ("product", product_bound_max_ell(k, p), t.f_hat),
            ("tail", k, t.tail),
        )
    ranges = []
    lo = 2
    for name, last, summand in cuts:
        hi = max(lo, min(k, math.floor(last) + 1))
        ranges.append((name, lo, hi, summand))
        lo = hi
    return ranges


def variance_ratio_bound(n: int, p: float, k: int) -> VarianceBound:
    """Per-overlap upper bounds on F_ell / (E X_k)^2 and their partial sums.

    Sparse regime (p < 1/(2 ln n)): the four-part split with the trivial,
    product, forest-count, and near-total-overlap bounds. Dense regime: the
    trivial bound up to ell_1, the product bound up to product_bound_max_ell
    = k - 2(1-p)/p, and the f0/f1 bound beyond. The other boundaries, and
    the checks of n, p and k, are partition_points'; ell <= x is ell <= floor(x).
    """
    pts = partition_points(n, p, k)
    sparse = p < 1 / (2 * log(n))
    ranges = _part_ranges(p, k, sparse, pts)
    terms = _OverlapTerms(n, p, k)
    entries = np.empty(k - 2)
    for _, lo, hi, summand in ranges:
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            entries[a - 2 : b - 2] = summand(terms, np.arange(a, b))
    return VarianceBound(
        n,
        p,
        k,
        "sparse" if sparse else "dense",
        entries,
        tuple((name, lo, hi) for name, lo, hi, _ in ranges),
        {name: log_sum_exp(entries[lo - 2 : hi - 2]) for name, lo, hi, _ in ranges},
        log_sum_exp(entries),
    )
