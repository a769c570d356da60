import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indtrees.experiments import THETA_UPPER
from indtrees.moments import (
    BracketError,
    compute_profile,
    g_threshold,
    gamma,
    gamma_derivative,
    k_hat_closed_form,
    k_star,
    log_binom,
    log_expected_trees,
    part3_r_star,
    part3_summand_log,
    partition_points,
    solve_k_hat,
    variance_ratio_bound,
)
from oracles import variance_ratio_bound_loop

mp.mp.dps = 60

LARGE_N = (10**12, 10**18, 10**30, 10**50)


def criterion7_cell(n):
    """(n, p, k) as acceptance criterion 7 picks them at n."""
    p = float(n) ** -(THETA_UPPER / 2)
    return n, p, math.floor(solve_k_hat(n, p).root - 0.5)


def mp_log_expected(n, p, k):
    p = mp.mpf(p)
    v = (
        mp.binomial(n, k)
        * mp.mpf(k) ** (k - 2)
        * p ** (k - 1)
        * (1 - p) ** (mp.binomial(k, 2) - k + 1)
    )
    return mp.log(v)


def mp_gamma(n, p, k):
    p = mp.mpf(p)
    k = mp.mpf(k)
    L = -mp.log(1 - p)
    return (
        -mp.log(2 * mp.pi) / 2
        + k * mp.log(n)
        + k
        - mp.mpf(2.5) * mp.log(k)
        + (k - 1) * (mp.log(p) + L)
        - k * (k - 1) / 2 * L
    )


# --- first moment ------------------------------------------------------------


def test_log_expected_trees_tiny_case_exact():
    # n=4, k=3, p=1/2: C(4,3)*3*(1/2)^2*(1/2)^1 = 3/2
    v = log_expected_trees(4, 0.5, 3)
    assert v.to_float() == pytest.approx(1.5, rel=1e-12)


def test_log_expected_trees_against_bigfloat():
    for (n, p, k) in [
        (12, 0.4, 4),
        (100, 0.1, 10),
        (10**5, 0.02, 300),
        (10**8, (10**8) ** -0.2, 1238),
    ] + [criterion7_cell(n) for n in LARGE_N]:
        got = log_expected_trees(n, p, k).logmag
        want = float(mp_log_expected(n, p, k))
        # absolute floor: ln E X_k is a sum of terms of size k ln n (2e7 at
        # n=1e50) that cancel down to tens of nats, so float64 holds it only
        # to a few ulps of k ln n; 1e-15 k ln n is about 4.5 ulps of it
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15 * k * math.log(n))


@pytest.mark.parametrize("n", LARGE_N, ids=lambda n: f"1e{len(str(n)) - 1}")
def test_log_binom_against_bigfloat_at_large_n(n):
    _, _, k = criterion7_cell(n)
    for (m, j) in [(n, k), (n - k, k // 2), (n, n - k)]:
        want = float(mp.log(mp.binomial(m, j)))
        assert log_binom(m, j) == pytest.approx(want, rel=1e-12)


def test_log_expected_trees_domain():
    with pytest.raises(ValueError):
        log_expected_trees(10, 0.5, 0)
    with pytest.raises(ValueError):
        log_expected_trees(10, 0.5, 11)
    with pytest.raises(ValueError):
        log_expected_trees(10, 0.0, 3)


@given(
    st.integers(min_value=2, max_value=4000),
    st.integers(min_value=1, max_value=4000),
)
def test_log_binom_matches_exact(n, k):
    # n up to 4000 crosses STIRLING_MIN_M on both sides of k = n/2
    if k > n:
        assert log_binom(n, k) == -math.inf
    else:
        assert log_binom(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-12, abs=1e-10
        )


# --- Stirling exponent and its root ------------------------------------------


def test_gamma_against_bigfloat():
    for (n, p, k) in [(10**5, 0.02, 123.456), (10**8, 0.02512, 1238.0), (10**6, 0.1, 50.5)]:
        assert gamma(n, p, k) == pytest.approx(
            float(mp_gamma(n, p, k)), rel=1e-10, abs=1e-6
        )


def test_gamma_derivative_is_derivative():
    n, p = 10**6, 0.01
    for k in (100.0, 500.0, 900.0):
        h = 1e-4
        numeric = (gamma(n, p, k + h) - gamma(n, p, k - h)) / (2 * h)
        assert gamma_derivative(n, p, k) == pytest.approx(numeric, rel=1e-6)


def test_k_hat_root_properties():
    for (n, p) in [(10**5, 0.02), (10**6, (10**6) ** -0.25), (10**7, 1 / (3 * math.log(10**7)))]:
        res = solve_k_hat(n, p)
        assert abs(res.gamma_at_root) <= 1e-9
        assert res.root < k_star(n, p)
        assert gamma(n, p, k_star(n, p)) < 0  # epsilon = k_star - k_hat > 0
        assert res.gap == pytest.approx(res.root - k_hat_closed_form(n, p))
        assert abs(res.gap) < 2.0  # closed form drops only o(1) terms


def test_k_hat_root_where_gamma_is_coarser_than_tol():
    # gamma's terms grow like k ln n; at these points no float k has
    # |gamma| <= KHAT_TOL, and bisection used to raise "stalled"
    stalls = (
        [(THETA_UPPER / 2, e) for e in (46, 55, 56, 58, 60, 68, 70, 75)]
        + [(0.1, e) for e in range(31, 36)]
        + [(0.05, 51)]
    )
    for (theta, e) in stalls:
        n = 10**e
        p = float(n) ** -theta
        root = solve_k_hat(n, p).root
        assert log_expected_trees(n, p, math.floor(root - 0.5)).logmag > 0
        assert log_expected_trees(n, p, math.ceil(root + 0.5)).logmag < 0


@pytest.mark.parametrize(
    "n, p, root_hex",
    [
        (14, 0.45, "0x1.4c60bfcc27496p+3"),
        (16, 0.45, "0x1.5ca8fc1680f9ep+3"),
        (1e8, 0.02, "0x1.80542975acd4fp+10"),
        (10**30, (10**30) ** -0.0584, "0x1.ce68b4db1ae8ep+12"),
        # gamma coarser than KHAT_TOL: the root bisection ends at adjacent floats
        (10**46, float(10**46) ** -(THETA_UPPER / 2), "0x1.7beb1c4fca5f9p+16"),
    ],
    ids=["14-.45", "16-.45", "1e8-.02", "1e30-theta.0584", "1e46-theta.0584"],
)
def test_k_hat_root_bits_pinned(n, p, root_hex):
    assert solve_k_hat(n, p).root.hex() == root_hex


def test_k_hat_unsupported_range_raises():
    with pytest.raises((BracketError, ValueError)):
        solve_k_hat(10, 0.001)  # np << 1: k_star below the bracket floor


def test_sign_flip_around_root():
    n, p = 10**6, 0.02
    root = solve_k_hat(n, p).root
    assert log_expected_trees(n, p, math.floor(root - 0.5)).logmag > 0
    assert log_expected_trees(n, p, math.ceil(root + 0.5)).logmag < 0


# --- threshold ---------------------------------------------------------------


def test_g_threshold_matches_formula():
    n, p, delta = 10**5, 0.02, 0.5
    raw = 2 * math.log(math.e * n * p) / (-math.log1p(-p)) + delta
    thr = g_threshold(n, p, delta)
    assert thr.value == math.floor(raw)
    assert thr.raw == pytest.approx(raw)
    assert not thr.near_tie


def test_g_threshold_near_tie_flag():
    n, p = 10**5, 0.02
    raw0 = g_threshold(n, p, 0.0).raw
    delta = math.ceil(raw0) - raw0  # pushes raw onto an integer
    assert g_threshold(n, p, delta).near_tie


def test_g_threshold_requires_supercritical():
    with pytest.raises(ValueError):
        g_threshold(100, 0.001, 0.5)


# --- partition geometry ------------------------------------------------------


@pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, -1.0])
def test_partition_points_rejects_bad_w(w):
    with pytest.raises(ValueError, match="w must be finite and positive"):
        partition_points(10**8, 0.01, 2949, w)


@pytest.mark.parametrize("n", [0, 1, 10**309])
def test_n_outside_float_range_rejected(n):
    with pytest.raises(ValueError, match=r"n must be in \[2, "):
        solve_k_hat(n, 0.01)
    with pytest.raises(ValueError, match=r"n must be in \[2, "):
        variance_ratio_bound(n, 0.01, 2)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_delta_not_finite_rejected(delta):
    with pytest.raises(ValueError, match="delta must be finite"):
        compute_profile(10**5, 0.02, delta=delta)


def test_partition_points_ordered_in_sparse_regime():
    n = 10**8
    p = n**-0.2
    k = math.floor(solve_k_hat(n, p).root - 0.5)
    pts = partition_points(n, p, k, math.log(n) ** 0.25)
    assert pts.ordered
    assert 2 <= pts.ell_star <= pts.k_minus_w_over_p <= pts.k_minus_half_p <= k - 1


def test_profile_fields_consistent():
    prof = compute_profile(10**5, 0.02, delta=0.5)
    assert prof.k == math.floor(prof.k_hat - 0.5)
    assert prof.epsilon == pytest.approx(prof.k_star - prof.k_hat)
    assert prof.b == pytest.approx(1 / (1 - prof.p))
    d = prof.to_dict()
    assert d["g"] == prof.threshold.value
    assert d["n"] == 10**5


# --- near-total-overlap maximizer -------------------------------------------


def test_part3_summand_unimodal_with_decreasing_ratio():
    # In the top f-branch the successive ratio strictly decreases, so the
    # summand is unimodal there; the real stationary point lands inside the
    # same branch. (The closed form only pins the integer argmax up to the
    # dropped lower-order terms, which are not small at these sizes.)
    n = 10**8
    p = n**-0.2
    k = math.floor(solve_k_hat(n, p).root - 0.5)
    pts = partition_points(n, p, k, math.log(n) ** 0.25)
    for ell in (
        math.floor(pts.k_minus_w_over_p) + 1,
        math.floor((pts.k_minus_w_over_p + pts.k_minus_half_p) / 2),
        math.floor(pts.k_minus_half_p),
    ):
        lo = math.ceil(ell * (1 - 1 / math.e))
        vals = [part3_summand_log(p, k, ell, r) for r in range(lo, ell)]
        ratios = [b - a for a, b in zip(vals, vals[1:])]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))  # log-concave
        r_star = part3_r_star(p, k, ell)
        assert lo <= r_star < ell
        argmax = lo + max(range(len(vals)), key=vals.__getitem__)
        # the stationary point and the integer argmax sit in the same
        # unimodal stretch, within a few percent of the overlap size
        assert abs(argmax - r_star) < 0.05 * ell


# --- variance-ratio bounds ---------------------------------------------------


def test_variance_bound_structure_sparse():
    n, p = 10**8, (10**8) ** -0.2
    assert p < 1 / (2 * math.log(n))
    k = math.floor(solve_k_hat(n, p).root - 0.5)
    vb = variance_ratio_bound(n, p, k)
    assert vb.regime == "sparse"
    ells = [ell for (_, ell, _) in vb.rows()]
    assert ells == list(range(2, k))
    assert_parts_tile(vb)  # part1 .. part4 as contiguous ranges of ell, in order
    assert [part for (part, _, _) in vb.parts] == ["part1", "part2", "part3", "part4"]
    assert set(vb.part_log_sums) == {"part1", "part2", "part3", "part4"}
    # partial sums recombine to the grand total
    from indtrees.logreal import log_sum_exp

    assert vb.log_total == pytest.approx(
        log_sum_exp(vb.part_log_sums.values()), abs=1e-9
    )


def test_variance_bound_structure_dense():
    n, p = 10**5, 0.2
    assert p >= 1 / (2 * math.log(n))
    k = math.floor(solve_k_hat(n, p).root - 0.5)
    vb = variance_ratio_bound(n, p, k)
    assert vb.regime == "dense"
    assert set(vb.part_log_sums) <= {"trivial", "product", "tail"}
    assert [part for (part, _, _) in vb.parts] == ["trivial", "product", "tail"]
    assert_parts_tile(vb)
    ells = [ell for (_, ell, _) in vb.rows()]
    assert ells == list(range(2, k))


# SHA-256 of repr(tuple(variance_ratio_bound(n, p, k).rows())), floats by repr, at
# criterion 7's three cells (1e30 is in the dense regime) and one more dense
# cell, recorded before the part boundaries were read from partition_points
PINNED_ENTRIES = {
    10**30: "96748b07154f6bd082262dba2b54d81a0a79488e6b83bf972eb77b02c2505fe5",
    10**40: "b0c510f39376e2601cc33ca434874fc374beaafecc590b77b7746b594cbc6adc",
    10**50: "ef12dc95e8b7f342392753af37534a0e1a606a0d9978ece0afaf076129531a4c",
}


@pytest.mark.parametrize(
    "cell, sha",
    [(criterion7_cell(n), sha) for n, sha in PINNED_ENTRIES.items()]
    + [((10**5, 0.2, 99), "aa49d0b33189c7d6a09890a7fdbc71a657e965a9ee1ab988a18e12e17eb7d56a")],
    ids=["1e30", "1e40", "1e50", "dense-1e5"],
)
def test_variance_bound_entries_pinned(cell, sha):
    vb = variance_ratio_bound(*cell)
    assert hashlib.sha256(repr(tuple(vb.rows())).encode()).hexdigest() == sha


def test_variance_bound_rejects_bad_k():
    with pytest.raises(ValueError):
        variance_ratio_bound(100, 0.1, 1)


# --- variance-ratio bound against the scalar loop ------------------------------
# variance_ratio_bound evaluates each part with numpy over blocks of ell; it
# must equal the one-ell-at-a-time loop exactly: entries, part sums and total.


def assert_parts_tile(vb):
    """vb.parts runs contiguously from ell = 2 to k, one range per part sum."""
    bounds = [2] + [hi for (_, _, hi) in vb.parts]
    assert [(lo, hi) for (_, lo, hi) in vb.parts] == list(zip(bounds, bounds[1:]))
    assert bounds[-1] == vb.k
    assert [part for (part, _, _) in vb.parts] == list(vb.part_log_sums)


def assert_matches_loop(*args):
    vb = variance_ratio_bound(*args)
    loop = variance_ratio_bound_loop(*args)
    rows = tuple(vb.rows())
    assert vb.regime == loop.regime
    assert rows == loop.entries
    assert vb.part_log_sums == loop.part_log_sums
    assert vb.log_total == loop.log_total
    assert_parts_tile(vb)
    # one float64 array; rows() gives Python objects, not numpy scalars:
    # repr, JSON and the pins depend on it
    assert type(vb.entries) is np.ndarray and vb.entries.dtype == np.float64
    assert vb.entries.shape == (vb.k - 2,)
    for row in rows:
        assert type(row) is tuple and len(row) == 3
        assert (type(row[0]), type(row[1]), type(row[2])) == (str, int, float)
    assert all(type(v) is float for v in vb.part_log_sums.values())
    assert type(vb.log_total) is float
    return vb


THEORY_GRID = [
    (n, p)
    for n in (10**5, 10**6, 10**7, 10**8, 10**10, 10**12)
    for p in (n ** -0.2, n ** -0.25, 1 / (3 * math.log(n)), 0.02)
]


@pytest.mark.parametrize("n, p", THEORY_GRID, ids=[f"{n:.0e}-{p:.4g}" for n, p in THEORY_GRID])
def test_variance_bound_matches_loop_on_theory_grid(n, p):
    assert_matches_loop(n, p, compute_profile(n, p).k)


@pytest.mark.parametrize("n", sorted(PINNED_ENTRIES), ids=["1e30", "1e40", "1e50"])
def test_variance_bound_matches_loop_on_criterion7_cells(n):
    assert_matches_loop(*criterion7_cell(n))


@pytest.mark.parametrize(
    "cell",
    [
        (10**5, 0.2, 99),
        # n - k < STIRLING_MIN_M: log_binom(n - k, .) takes its lgamma branch
        (100, 0.3, 20),
        (100, 0.5, 60),
        (50, 0.3, 49),
        (100, 0.01, 3),  # one entry
        (100, 0.01, 100),  # k = n: C(n - k, k - ell) = 0, sparse
        (30, 0.5, 30),  # k = n, dense
    ],
    ids=["dense-1e5", "100-0.3-20", "100-0.5-60", "50-0.3-49", "k3", "k=n-sparse", "k=n-dense"],
)
def test_variance_bound_matches_loop_on_small_cells(cell):
    assert_matches_loop(*cell)


def test_variance_bound_k2_has_no_entries():
    vb = assert_matches_loop(100, 0.01, 2)
    assert vb.entries.size == 0 and tuple(vb.rows()) == ()
    assert all(lo == hi == 2 for (_, lo, hi) in vb.parts)
    assert vb.log_total == -math.inf
    assert set(vb.part_log_sums.values()) == {-math.inf}


def test_variance_bound_keeps_one_float_per_ell():
    # the theory grid's largest cell, where a (part, ell, value) tuple per ell
    # kept 5.4 MB; 43424 float64 entries are 0.35 MB
    n = 10**12
    p = n ** -0.25
    k = compute_profile(n, p).k
    assert k == 43426
    tracemalloc.start()
    try:
        vb = variance_ratio_bound(n, p, k)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000
    assert vb.entries.dtype == np.float64 and vb.entries.shape == (k - 2,)
    assert_parts_tile(vb)


def test_variance_bound_matches_loop_with_an_empty_part():
    # w = (ln n)^3 pushes k - w/p below ell*: part 2 is empty, part 3 takes its ells
    vb = assert_matches_loop(10**8, 0.01, 2949, 3.0)
    assert vb.part_sum("part2") == -math.inf
    [(lo, hi)] = [(lo, hi) for (part, lo, hi) in vb.parts if part == "part2"]
    assert lo == hi
    assert "part2" not in {part for (part, _, _) in vb.rows()}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10**15),
    u=st.floats(min_value=0.01, max_value=0.99),
    k=st.integers(min_value=2, max_value=300),
    w_exponent=st.sampled_from([0.25, 1.0, 2.0]),
)
@pytest.mark.parametrize("regime", ["sparse", "dense"])
def test_variance_bound_matches_loop_swept(regime, n, u, k, w_exponent):
    edge = 1 / (2 * math.log(n))  # p below it is the sparse regime
    p = u * edge if regime == "sparse" else edge + u * (0.95 - edge)
    vb = assert_matches_loop(n, p, min(k, n), w_exponent)
    assert vb.regime == regime
