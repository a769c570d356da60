import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indtrees import moments
from indtrees.experiments import THETA_UPPER
from indtrees.moments import (
    BracketError,
    _OverlapTerms,
    compute_profile,
    g_threshold,
    gamma,
    gamma_derivative,
    k_hat_closed_form,
    k_star,
    log_binom,
    log_expected_trees,
    partition_points,
    solve_k_hat,
    variance_ratio_bound,
)
from oracles import f1_max_scan, part3_r_star, part3_summand_log, variance_ratio_bound_loop

mp.mp.dps = 60

LARGE_N = (10**12, 10**18, 10**30, 10**50)


def criterion7_cell(n):
    """(n, p, k) as acceptance criterion 7 picks them at n."""
    p = float(n) ** -(THETA_UPPER / 2)
    return n, p, math.floor(solve_k_hat(n, p) - 0.5)


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


@pytest.mark.parametrize("k", [1.0, 0.5, -3.0])
def test_gamma_rejects_k_at_most_1(k):
    with pytest.raises(ValueError, match=rf"^gamma requires k > 1, got {k}$"):
        gamma(100, 0.1, k)


def test_gamma_derivative_is_derivative():
    n, p = 10**6, 0.01
    for k in (100.0, 500.0, 900.0):
        h = 1e-4
        numeric = (gamma(n, p, k + h) - gamma(n, p, k - h)) / (2 * h)
        assert gamma_derivative(n, p, k) == pytest.approx(numeric, rel=1e-6)


def test_k_hat_root_properties():
    for (n, p) in [(10**5, 0.02), (10**6, (10**6) ** -0.25), (10**7, 1 / (3 * math.log(10**7)))]:
        root = solve_k_hat(n, p)
        assert abs(gamma(n, p, root)) <= 1e-9
        assert root < k_star(n, p)
        assert gamma(n, p, k_star(n, p)) < 0  # epsilon = k_star - k_hat > 0
        assert abs(root - k_hat_closed_form(n, p)) < 2.0  # closed form drops only o(1) terms


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
        root = solve_k_hat(n, p)
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
    assert solve_k_hat(n, p).hex() == root_hex


def test_k_hat_unsupported_range_raises():
    with pytest.raises((BracketError, ValueError)):
        solve_k_hat(10, 0.001)  # np << 1: k_star below the bracket floor


def test_k_hat_stalled_bisection_raises(monkeypatch):
    # a bisection that never moves leaves gamma far from 0 at the returned root
    monkeypatch.setattr(moments, "_bisect", lambda f, lo, hi, tol: (lo, lo))
    with pytest.raises(BracketError, match=r"bisection stalled: gamma = 18\.5"):
        solve_k_hat(10**5, 0.02)


def test_sign_flip_around_root():
    n, p = 10**6, 0.02
    root = solve_k_hat(n, p)
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


@pytest.mark.parametrize("n", [0, 1, 10**309])
def test_n_outside_float_range_rejected(n):
    with pytest.raises(ValueError, match=r"n must be in \[2, "):
        solve_k_hat(n, 0.01)
    with pytest.raises(ValueError, match=r"n must be in \[2, "):
        variance_ratio_bound(n, 0.01, 2)


@pytest.mark.parametrize("n", [0, 1, 10**309])
def test_partition_points_rejects_n_outside_float_range(n):
    # not a math domain error from log(log(n)) or log(n)
    with pytest.raises(ValueError, match=r"n must be in \[2, "):
        partition_points(n, 0.3, 5)


@pytest.mark.parametrize("k", [0, 1, 100001])
def test_partition_points_rejects_k_outside_2_to_n(k):
    # not a math domain error from log(4ek) at k <= 0; profile and varbound both come here
    with pytest.raises(ValueError, match=rf"^need 2 <= k <= n, got k={k}$"):
        partition_points(10**5, 0.02, k)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_delta_not_finite_rejected(delta):
    with pytest.raises(ValueError, match="delta must be finite"):
        compute_profile(10**5, 0.02, delta=delta)


def test_partition_points_ordered_in_sparse_regime():
    n = 10**8
    p = n**-0.2
    k = math.floor(solve_k_hat(n, p) - 0.5)
    pts = partition_points(n, p, k)
    assert 2 <= pts.ell_star <= pts.k_minus_w_over_p <= pts.k_minus_half_p <= k - 1


def test_profile_fields_consistent():
    prof = compute_profile(10**5, 0.02, delta=0.5)
    assert prof.k == math.floor(prof.k_hat - 0.5)
    assert prof.epsilon == pytest.approx(prof.k_star - prof.k_hat)
    assert prof.b == pytest.approx(1 / (1 - prof.p))
    d = prof.to_dict()
    assert d["g"] == prof.g
    assert d["n"] == 10**5


PROFILE_PINS = {
    (16, 0.45): {
        "b": "0x1.d1745d1745d17p+0",
        "k_star": "0x1.9e621188a8cddp+3",
        "k_hat": "0x1.5ca8fc1680f9ep+3",
        "epsilon": "0x1.06e455c89f4fcp+1",
        "k_hat_closed_form": "0x1.8af79f6e78abep+3",
        "closed_form_gap": "-0x1.72751abfbd900p+0",
        "delta": "0x1.0000000000000p-1",
        "g": 10,
        "g_raw": "0x1.4e621188a8cdcp+3",
        "g_near_tie": False,
        "k": 10,
        "ell_star": "-0x1.22a04f0b0ef59p+3",
        "ell_1": "-0x1.20464ace24f02p+4",
        "ell_2": "0x1.9555555555555p+2",
        "w": "0x1.4a571269bb980p+0",
    },
    (10**5, 0.02): {
        "b": "0x1.05397829cbc15p+0",
        "k_star": "0x1.ab3aedd833661p+9",
        "k_hat": "0x1.aa6c6cb7ab5cap+9",
        "epsilon": "0x1.9d02411012e00p+0",
        "k_hat_closed_form": "0x1.aad81c5abbd8fp+9",
        "closed_form_gap": "-0x1.aebe8c41f1400p-1",
        "delta": "0x1.0000000000000p-1",
        "g": 851,
        "g_raw": "0x1.a9faedd833661p+9",
        "g_near_tie": False,
        "k": 852,
        "ell_star": "-0x1.2f84f7c189bc7p+7",
        "ell_1": "-0x1.8db5ff1f1d18ep+9",
        "ell_2": "0x1.6080000000000p+9",
        "w": "0x1.d78f339111f8cp+0",
    },
    (10**30, (10**30) ** -0.0584): {
        "b": "0x1.049cf68315676p+0",
        "k_star": "0x1.ce6d59aa9ccf6p+12",
        "k_hat": "0x1.ce68b4db1ae8ep+12",
        "epsilon": "0x1.2933e079a0000p-2",
        "k_hat_closed_form": "0x1.ce6bdc9a4cc4fp+12",
        "closed_form_gap": "-0x1.93df98ee08000p-3",
        "delta": "0x1.0000000000000p-1",
        "g": 7396,
        "g_raw": "0x1.ce4559aa9ccf6p+12",
        "g_near_tie": False,
        "k": 7398,
        "ell_star": "0x1.782f4f91a51e7p+12",
        "ell_1": "0x1.ecabe3fe02d27p+11",
        "ell_2": "0x1.c3f84d72027ffp+12",
        "w": "0x1.7103e15dfabd4p+1",
    },
}


@pytest.mark.parametrize("cell", list(PROFILE_PINS), ids=["16-.45", "1e5-.02", "1e30-theta.0584"])
def test_profile_to_dict_pinned(cell):
    # key by key, so that a key added to to_dict leaves the pin valid
    n, p = cell
    d = compute_profile(n, p).to_dict()
    assert d["n"] == n and d["p"] == p
    got = {key: d[key].hex() if type(d[key]) is float else d[key] for key in PROFILE_PINS[cell]}
    assert got == PROFILE_PINS[cell]


# --- near-total-overlap maximizer -------------------------------------------


def test_part3_summand_unimodal_with_decreasing_ratio():
    # In the top f-branch the successive ratio strictly decreases, so the
    # summand is unimodal there; the real stationary point lands inside the
    # same branch. (The closed form only pins the integer argmax up to the
    # dropped lower-order terms, which are not small at these sizes.)
    n = 10**8
    p = n**-0.2
    k = math.floor(solve_k_hat(n, p) - 0.5)
    pts = partition_points(n, p, k)
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
    k = math.floor(solve_k_hat(n, p) - 0.5)
    vb = variance_ratio_bound(n, p, k)
    assert vb.regime == "sparse"
    ells = [ell for (_, ell, _) in vb.rows()]
    assert ells == list(range(2, k))
    assert_parts_tile(vb)  # part1 .. part4 as contiguous ranges of ell, in order
    assert [part for (part, _, _) in vb.parts] == ["part1", "part2", "part3", "part4"]
    assert set(vb.part_log_sums) == {"part1", "part2", "part3", "part4"}
    # partial sums recombine to the grand total
    from indtrees.moments import log_sum_exp

    assert vb.log_total == pytest.approx(
        log_sum_exp(vb.part_log_sums.values()), abs=1e-9
    )


def test_variance_bound_structure_dense():
    n, p = 10**5, 0.2
    assert p >= 1 / (2 * math.log(n))
    k = math.floor(solve_k_hat(n, p) - 0.5)
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


@pytest.mark.parametrize(
    "cell",
    [
        # theta = 0.1, where parts 2-4 call log_binom(n - k, s) past 2^62 and
        # every block of s rounds n - k - s to one float. The loop takes about
        # 7 s at 1e40, the cell where the per-element conversion was slow, so
        # the test takes theta = 0.1 at 1e24.
        (10**24, (10**24) ** -0.1, 25439),
        # dense: the product part reads log_binom(n - k, s), and n - k - s
        # crosses 2^62 from 2^62 + 300, where the float spacing halves, so
        # one block spans several floats
        (2**62 + 3300, 0.3, 3000),
    ],
    ids=["theta0.1-1e24", "straddles-2^62"],
)
def test_variance_bound_matches_loop_past_int64_exact(cell):
    n, p, k = cell
    assert n - k >= moments._INT64_EXACT
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
    # at k = 1000, k - w/p falls below ell*: part 2 is empty, part 3 takes its ells
    vb = assert_matches_loop(10**8, 0.01, 1000)
    assert vb.part_log_sums["part2"] == -math.inf
    [(lo, hi)] = [(lo, hi) for (part, lo, hi) in vb.parts if part == "part2"]
    assert lo == hi
    assert "part2" not in {part for (part, _, _) in vb.rows()}


# --- the process-wide log j and lgamma j tables --------------------------------
# variance_ratio_bound reads log and lgamma at integers from tables that grow
# across calls; the loop oracle calls math directly, so every comparison with
# it checks the table entries too.

LARGEST_GRID_CELL = (10**12, (10**12) ** -0.25, 43426)  # k above _TABLE_CAP


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty tables (entry 0 only) for one test; the process's own come back after."""
    monkeypatch.setattr(moments, "_INT_TABLES", {f: t[:1] for f, t in moments._INT_TABLES.items()})
    return moments._INT_TABLES


def test_variance_bound_entries_do_not_depend_on_earlier_calls(fresh_tables):
    cell = (10**6, (10**6) ** -0.2, compute_profile(10**6, (10**6) ** -0.2).k)
    before = variance_ratio_bound(*cell)
    assert max(t.size for t in fresh_tables.values()) <= cell[2] + 1
    variance_ratio_bound(*LARGEST_GRID_CELL)
    assert fresh_tables[math.log].size == moments._TABLE_CAP
    after = variance_ratio_bound(*cell)
    assert after.entries.tobytes() == before.entries.tobytes()
    assert after.part_log_sums == before.part_log_sums
    assert after.log_total == before.log_total


def test_tables_stop_at_the_cap(fresh_tables):
    assert LARGEST_GRID_CELL[2] > moments._TABLE_CAP
    assert_matches_loop(*LARGEST_GRID_CELL)
    # log is asked for at every ell + 1 <= k; lgamma only up to about 28,000
    assert fresh_tables[math.log].size == moments._TABLE_CAP
    assert fresh_tables[math.lgamma].size <= moments._TABLE_CAP


@pytest.mark.parametrize("n, p", THEORY_GRID, ids=[f"{n:.0e}-{p:.4g}" for n, p in THEORY_GRID])
def test_variance_bound_matches_loop_past_a_small_table_cap(n, p, fresh_tables, monkeypatch):
    # values below the cap come from the tables, values above it per call
    monkeypatch.setattr(moments, "_TABLE_CAP", 64)
    vb = assert_matches_loop(n, p, compute_profile(n, p).k)
    assert vb.k > 64
    assert all(t.size == 64 for t in moments._INT_TABLES.values())


def test_loop_oracle_does_not_read_the_tables(fresh_tables):
    # tables one ulp off everywhere: the oracle keeps its values, and
    # variance_ratio_bound no longer matches it
    n, p, k = 10**8, 0.02, compute_profile(10**8, 0.02).k
    want = variance_ratio_bound_loop(n, p, k)
    variance_ratio_bound(n, p, k)  # fills the tables up to k
    for f, t in fresh_tables.items():
        fresh_tables[f] = np.nextafter(t, math.inf)
    assert variance_ratio_bound_loop(n, p, k) == want
    assert tuple(variance_ratio_bound(n, p, k).rows()) != want.entries


# --- the dense tail's screened maximum against the full scan --------------------

DENSE_TAIL_CELLS = [(n, p) for n, p in THEORY_GRID if p >= 1 / (2 * math.log(n))] + [
    (10**20, 0.012),
    (10**30, 0.01),
]


@pytest.mark.parametrize(
    "n, p", DENSE_TAIL_CELLS, ids=[f"{n:.0e}-{p:.4g}" for n, p in DENSE_TAIL_CELLS]
)
def test_f1_max_matches_full_scan_on_tail_rows(n, p, monkeypatch):
    k = compute_profile(n, p).k
    vb = variance_ratio_bound(n, p, k)
    [(lo, hi)] = [(lo, hi) for (part, lo, hi) in vb.parts if part == "tail"]
    assert hi > lo
    terms = _OverlapTerms(n, p, k)
    # ln(ps / (1 - p)) as tail() forms it
    rows = [(ell, terms.log_p - terms.log1p_p + math.log(k - ell)) for ell in range(lo, hi)]
    want = [f1_max_scan(k, *row).hex() for row in rows]
    assert [terms._f1_max(*row).hex() for row in rows] == want
    # the screen's margin also covers an np.log a million times coarser than
    # its real few ulps: off by 2e-10 relative, alternately up and down
    true_log = np.log
    monkeypatch.setattr(
        np, "log", lambda x: true_log(x) * (1 + 2e-10 * (-1.0) ** np.arange(x.size))
    )
    assert [terms._f1_max(*row).hex() for row in rows] == want


def _within_ulps(x: float, ulps: int) -> list[float]:
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# ln(ps / (1 - p)) at which the low (ln 2) or the middle (ln 9/8) branch of
# f1 is flat in r, so that its values differ only by rounding; at ln 2 and
# (k, ell) = (2448, 2447) the middle branch starts at the same value, r = k/2,
# and 1225 r are candidates
FLAT_LOG_PS = _within_ulps(math.log(2), 4) + _within_ulps(math.log(9 / 8), 4)


@pytest.mark.parametrize(
    "k, ell", [(40, 3), (200, 150), (2448, 2351), (2448, 2447), (13031, 12900)]
)
def test_f1_max_matches_full_scan_on_flat_rows(k, ell):
    terms = _OverlapTerms(10**12, 0.02, k)  # _f1_max reads only k
    for log_ps in FLAT_LOG_PS:
        assert terms._f1_max(ell, log_ps).hex() == f1_max_scan(k, ell, log_ps).hex()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10**15),
    u=st.floats(min_value=0.01, max_value=0.99),
    k=st.integers(min_value=2, max_value=300),
)
@pytest.mark.parametrize("regime", ["sparse", "dense"])
def test_variance_bound_matches_loop_swept(regime, n, u, k):
    edge = 1 / (2 * math.log(n))  # p below it is the sparse regime
    p = u * edge if regime == "sparse" else edge + u * (0.95 - edge)
    vb = assert_matches_loop(n, p, min(k, n))
    assert vb.regime == regime
