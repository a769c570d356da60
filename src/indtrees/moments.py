"""Log-domain evaluation of the first/second moment formulas.

Expected counts of induced k-trees, the Stirling-asymptotic exponent and its
root k_hat, the floor threshold, and the per-overlap variance-ratio bounds in
both the sparse and the dense edge-probability regimes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import comb, e, lgamma, log, log1p, pi

from .counting import f_piecewise
from .logreal import LogReal, log_sum_exp

KHAT_TOL = 1e-9
STIRLING_MIN_M = 1000  # below it, lgamma differences are exact to ~1e-13 relative
NEAR_TIE_EPS = 1e-6
DEFAULT_W_EXPONENT = 0.25


def _check_p(p: float) -> None:
    if math.isnan(p) or not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")


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


@dataclass(frozen=True)
class KHatResult:
    root: float  # bisection root of gamma
    closed_form: float
    gap: float  # root - closed_form, the empirical size of the o(1) term
    gamma_at_root: float


class BracketError(RuntimeError):
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


def solve_k_hat(n: int, p: float) -> KHatResult:
    """Bisection root of gamma on [argmax gamma + 1, k_star].

    The root has |gamma| <= KHAT_TOL = 1e-9 wherever a float k reaches that;
    where gamma's rounding is coarser, bisection runs until the bracket ends are
    adjacent floats and the root is within _gamma_rounding of zero.
    """
    _check_p(p)
    ks = k_star(n, p)
    if ks <= 2:
        raise BracketError(f"k_star = {ks:.3f} <= 2 at n={n}, p={p}")
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_derivative(n, p, mid) > 0:
            lo = mid
        else:
            hi = mid
    k_max = 0.5 * (lo + hi)

    lo = min(k_max + 1, ks - 1e-12)
    hi = ks
    if gamma(n, p, lo) <= 0:
        raise BracketError(f"gamma({lo:.3f}) <= 0; no positive bracket end at n={n}, p={p}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = gamma(n, p, mid)
        if abs(gm) <= KHAT_TOL:
            lo = hi = mid
            break
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink further
            break
        if gm > 0:
            lo = mid
        else:
            hi = mid
    root = min((lo, hi), key=lambda k: abs(gamma(n, p, k)))
    g_root = gamma(n, p, root)
    if abs(g_root) > max(KHAT_TOL, _gamma_rounding(n, p, root)):
        raise BracketError(f"bisection stalled: gamma = {g_root:.3g} at n={n}, p={p}")
    cf = k_hat_closed_form(n, p)
    return KHatResult(root, cf, root - cf, g_root)


@dataclass(frozen=True)
class Threshold:
    value: int
    raw: float  # the un-floored expression
    near_tie: bool  # fractional part within 1e-6 of an integer: floor untrustworthy


def g_threshold(n: int, p: float, delta: float) -> Threshold:
    """floor(2 log_{1/(1-p)}(enp) + delta), with a floor-instability flag."""
    _check_p(p)
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
    ell_2: float
    w: float
    ordered: bool  # 2 <= ell_star <= k - w/p <= k - 1/(2p) <= k - 1


def partition_points(n: int, p: float, k: float, w: float) -> PartitionPoints:
    """Boundaries of the four-part split of overlap sizes, plus the dense-regime ones."""
    _check_p(p)
    if w <= 0:
        raise ValueError("w must be positive")
    L = -log1p(-p)
    ell_star = (2 * log(n * p) - 2 * log(4 * e * k)) / L
    b2 = k - w / p
    b3 = k - 1 / (2 * p)
    ell_1 = (2 * log(n) - 16 * log(log(n))) / L
    ell_2 = k - 3 * (1 - p) / p
    ordered = 2 <= ell_star <= b2 <= b3 <= k - 1
    return PartitionPoints(ell_star, b2, b3, ell_1, ell_2, w, ordered)


@dataclass(frozen=True)
class MomentProfile:
    n: int
    p: float
    b: float  # 1/(1-p)
    k_star: float
    k_hat: float
    epsilon: float  # k_star - k_hat
    k_hat_closed_form: float
    closed_form_gap: float
    delta: float
    threshold: Threshold
    k: int  # floor(k_hat - 1 + delta), the size the second moment targets
    points: PartitionPoints

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "b": self.b,
            "k_star": self.k_star,
            "k_hat": self.k_hat,
            "epsilon": self.epsilon,
            "k_hat_closed_form": self.k_hat_closed_form,
            "closed_form_gap": self.closed_form_gap,
            "delta": self.delta,
            "g": self.threshold.value,
            "g_raw": self.threshold.raw,
            "g_near_tie": self.threshold.near_tie,
            "k": self.k,
            "ell_star": self.points.ell_star,
            "ell_1": self.points.ell_1,
            "ell_2": self.points.ell_2,
            "w": self.points.w,
        }


def compute_profile(
    n: int, p: float, delta: float = 0.5, w_exponent: float = DEFAULT_W_EXPONENT
) -> MomentProfile:
    kh = solve_k_hat(n, p)
    thr = g_threshold(n, p, delta)
    k = math.floor(kh.root - 1 + delta)
    w = log(n) ** w_exponent
    pts = partition_points(n, p, k, w)
    return MomentProfile(
        n=n,
        p=p,
        b=1 / (1 - p),
        k_star=k_star(n, p),
        k_hat=kh.root,
        epsilon=k_star(n, p) - kh.root,
        k_hat_closed_form=kh.closed_form,
        closed_form_gap=kh.gap,
        delta=delta,
        threshold=thr,
        k=k,
        points=pts,
    )


# ---------------------------------------------------------------------------
# variance-ratio bounds


@dataclass(frozen=True)
class VarianceBound:
    n: int
    p: float
    k: int
    regime: str  # "sparse" (p < 1/(2 ln n)) or "dense"
    entries: tuple[tuple[str, int, float], ...]  # (part, ell, log summand)
    part_log_sums: dict[str, float]  # -inf for an empty part
    log_total: float

    def part_sum(self, part: str) -> float:
        return self.part_log_sums.get(part, -math.inf)


def _sparse_part1_log(n: int, p: float, k: int, ell: int) -> float:
    # ln k + ell (1 + 2 ln k + (1 - ell/2) ln(1-p) - ln n - ln ell - ln p)
    return log(k) + ell * (
        1 + 2 * log(k) + (1 - ell / 2) * log1p(-p) - log(n) - log(ell) - log(p)
    )


def _f_hat_log(n: int, p: float, k: int, ell: int, log_cnk: float) -> float:
    # C(k,l) C(n-k,k-l) (1-p)^(-C(l,2)) (k-l)^(k-2) (l+1)^(k-l-1) / (C(n,k) k^(k-3))
    # log_cnk = ln C(n, k), shared by every ell
    return (
        log_binom(k, ell)
        + log_binom(n - k, k - ell)
        - comb(ell, 2) * log1p(-p)
        + (k - 2) * log(k - ell)
        + (k - ell - 1) * log(ell + 1)
        - log_cnk
        - (k - 3) * log(k)
    )


def _sparse_part3_log(n: int, p: float, k: int, ell: int, log_cnk: float) -> float:
    # H(ell) evaluated at the real maximizer r* = ell - (beta*ell*p/e)^(2/3) / p
    beta = (k - ell) * p
    lam = (beta * ell * p / e) ** (2.0 / 3.0)
    r_star = ell - lam / p
    gap = ell - r_star  # lam / p > 0
    return (
        log_binom(k, ell)
        + log_binom(n - k, k - ell)
        - log_cnk
        + log(ell)
        + r_star * (log1p(-p) - log(p))
        - 2 * (k - 2) * log(k)
        - comb(ell, 2) * log1p(-p)
        + gap
        + (3 * ell - 2 * r_star - 1) * log(ell)
        + (3 * (r_star - ell) + 1) * log(gap)
        + 2 * (k - ell - 1) * log(ell + 1)
        + 2 * (k - r_star - 2) * log(k - ell)
    )


def part3_r_star(p: float, k: int, ell: int) -> float:
    """Real maximizer of the overlap-edge count in the near-total-overlap zone."""
    beta = (k - ell) * p
    return ell - (beta * ell * p / e) ** (2.0 / 3.0) / p


def part3_summand_log(p: float, k: int, ell: int, r: int) -> float:
    """r-dependent factor of the overlap sum at integer r: forest-count bound
    times ((1-p)/p)^r times the squared extension bound. Used to check that the
    integer argmax sits next to the real stationary point."""
    return (
        log_binom(ell, ell - r)
        + log(ell - r)
        + (r - 1) * log(ell)
        + r * (log1p(-p) - log(p))
        + 2 * f_piecewise(k, ell, r)
    )


def _sparse_part4_log(n: int, p: float, k: int, ell: int, log_cnk: float) -> float:
    s = k - ell
    log_s_term = 0.0 if s == 1 else (s - 2) * log(s)  # (k-l)^(k-l-2), s >= 1
    return (
        log_binom(k, ell)
        + log_binom(n - k, s)
        - log_cnk
        - (k - 2) * log(k)
        - comb(ell, 2) * log1p(-p)
        + log(ell)
        + ell * (log1p(-p) - log(p))
        + (s - 1) * log(ell + 1)
        + log_s_term
        + ell * s * p / (e * (1 - p))
    )


def _dense_trivial_log(n: int, p: float, k: int, ell: int, log_cnk: float) -> float:
    return (
        log_binom(k, ell)
        + log_binom(n - k, k - ell)
        - log_cnk
        - comb(ell, 2) * log1p(-p)
        + ell * (log1p(-p) - log(p))
    )


def _dense_tail_log(n: int, p: float, k: int, ell: int, log_ex: float) -> float:
    # s = k - ell vertices are unshared; maximize f1(k, r) over integer r
    s = k - ell
    base = (
        log_binom(k, s)
        + log_binom(n - k, s)
        + s * k * log1p(-p)
        + s * log(k)
        - log_ex
    )
    log_ps = log(p) - log1p(-p) + log(s)
    best = -math.inf
    hi_cut = ell * (1 - 1 / e)
    for r in range(0, k - s):  # r <= k - s - 1 = ell - 1
        if r >= hi_cut:
            f0 = (k - r) * log(ell / (ell - r))
        elif r >= ell / 2:
            f0 = k * log(4 / 3) + r * log(9 / 8)
        else:
            f0 = r * log(2)
        val = f0 + (k - r) * log_ps
        if val > best:
            best = val
    return base + best


def variance_ratio_bound(
    n: int, p: float, k: int, w_exponent: float = DEFAULT_W_EXPONENT
) -> VarianceBound:
    """Per-overlap upper bounds on F_ell / (E X_k)^2 and their partial sums.

    Sparse regime (p < 1/(2 ln n)): the four-part split with the trivial,
    product, forest-count, and near-total-overlap bounds. Dense regime: the
    trivial bound up to ell_1, the product bound through ell_2's zone, and
    the f0/f1 bound for the last O(1/p) overlaps. The part boundaries are
    partition_points'; for integer ell, ell <= x is ell <= floor(x).
    """
    _check_p(p)
    if not (2 <= k <= n):
        raise ValueError(f"need 2 <= k <= n, got k={k}")
    sparse = p < 1 / (2 * log(n))
    w = log(n) ** w_exponent
    log_cnk = log_binom(n, k)
    pts = partition_points(n, p, k, w)
    entries: list[tuple[str, int, float]] = []

    if sparse:
        for ell in range(2, k):
            if ell <= pts.ell_star:
                entries.append(("part1", ell, _sparse_part1_log(n, p, k, ell)))
            elif ell <= pts.k_minus_w_over_p:
                entries.append(("part2", ell, _f_hat_log(n, p, k, ell, log_cnk)))
            elif ell <= pts.k_minus_half_p:
                entries.append(("part3", ell, _sparse_part3_log(n, p, k, ell, log_cnk)))
            else:
                entries.append(("part4", ell, _sparse_part4_log(n, p, k, ell, log_cnk)))
        part_names = ("part1", "part2", "part3", "part4")
    else:
        cut = k - 2 * (1 - p) / p
        log_ex = log_expected_trees(n, p, k).logmag
        for ell in range(2, k):
            if ell <= pts.ell_1:
                entries.append(("trivial", ell, _dense_trivial_log(n, p, k, ell, log_cnk)))
            elif ell <= cut:
                entries.append(("product", ell, _f_hat_log(n, p, k, ell, log_cnk)))
            else:
                entries.append(("tail", ell, _dense_tail_log(n, p, k, ell, log_ex)))
        part_names = ("trivial", "product", "tail")

    part_log_sums = {
        name: log_sum_exp(v for (pn, _, v) in entries if pn == name)
        for name in part_names
    }
    total = log_sum_exp(v for (_, _, v) in entries)
    return VarianceBound(
        n, p, k, "sparse" if sparse else "dense", tuple(entries), part_log_sums, total
    )
