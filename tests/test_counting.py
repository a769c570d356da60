import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from indtrees import counting
from indtrees.counting import (
    cayley,
    count_forests,
    count_forests_enumerated,
    count_overlap_pairs,
    enumerate_labeled_trees,
    f_piecewise,
    rooted_forest_count_closed_form,
    rooted_forest_count_enumerated,
    validate_overlap_bounds,
)
from indtrees.graphs import Graph, is_tree
from oracles import (
    count_overlap_pairs_pairwise,
    count_trees_extending_forest,
    enumerate_forests,
    forest_masks,
    forests_by_filter,
    prufer_trees,
    restriction_masks_loop,
)


# --- labeled tree enumeration ------------------------------------------------


def test_cayley_values():
    assert [cayley(k) for k in range(1, 7)] == [1, 1, 3, 16, 125, 1296]


def test_enumeration_yields_distinct_trees():
    for k in range(1, 7):
        seen = set()
        for edges in enumerate_labeled_trees(k):
            assert edges not in seen
            seen.add(edges)
            assert is_tree(Graph(k, edges))
            assert all(u < v for (u, v) in edges)
        assert len(seen) == cayley(k)


def test_batch_stream_matches_scalar_decoder():
    # same tuples in the same order; k=7 spans 17 batches
    for k in range(3, 8):
        assert list(enumerate_labeled_trees(k)) == list(prufer_trees(k))


def test_k8_stream_pinned():
    # SHA-256 of the k=8 stream, recorded with the scalar decoder
    stream = "".join(map(repr, enumerate_labeled_trees(8)))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "0563e0775da398baaa11e5015af03a5d37273b7899437021c98a136ff97a3961"
    )


def test_stream_matches_scalar_decoder_across_small_batches(monkeypatch):
    # batches of 7 end inside every block of Prüfer indices that share a prefix
    monkeypatch.setattr(counting, "_PRUFER_BATCH", 7)
    for k in range(3, 8):
        assert list(enumerate_labeled_trees(k)) == list(prufer_trees(k))
    assert counting._restriction_masks(6, 4) == restriction_masks_loop(6, 4)


def test_restriction_masks_match_per_tree_loop():
    for k in range(2, 8):
        for l in range(2, k + 1):
            assert counting._restriction_masks(k, l) == restriction_masks_loop(k, l)


@pytest.mark.parametrize(
    "batch, ks",
    # batch 7 stops at k = 7 (k = 6 still ends on a one-tree batch, 1296 =
    # 7 * 185 + 1); k = 8 at batch 8191 ends on a ragged batch of 32 trees
    [(None, range(2, 9)), (7, range(2, 8)), (8191, [8])],
    ids=["default-batch", "batch-7", "batch-8191"],
)
def test_tree_code_batches_are_sorted_columns(monkeypatch, batch, ks):
    # each batch is (k-1, width) uint8, one tree per column, of codes u*k + v
    # with u < v, and every column strictly increasing downward: the edges
    # are sorted and none repeats
    if batch is not None:
        monkeypatch.setattr(counting, "_PRUFER_BATCH", batch)
    for k in ks:
        batches = list(counting._tree_code_batches(k))
        assert all(b.dtype == np.uint8 and b.ndim == 2 and b.shape[0] == k - 1 for b in batches)
        widths = [b.shape[1] for b in batches]
        assert max(widths) <= counting._PRUFER_BATCH
        assert sum(widths) == cayley(k)
        codes = np.concatenate(batches, axis=1)
        assert (codes // k < codes % k).all()
        assert (codes[1:] > codes[:-1]).all()


def test_enumeration_matches_direct_scan():
    # independent oracle: scan all graphs with k-1 edges for trees
    k = 5
    pairs = list(itertools.combinations(range(k), 2))
    direct = {
        edges
        for edges in itertools.combinations(pairs, k - 1)
        if is_tree(Graph(k, edges))
    }
    assert direct == set(enumerate_labeled_trees(k))


# --- forest counting ---------------------------------------------------------


def test_forest_recurrence_matches_enumeration():
    for l in range(1, 7):
        for r in range(l):
            assert count_forests(l, r).value == count_forests_enumerated(l, r)


def test_rooted_forest_weights_match_closed_form():
    # power 1 weights each forest by its root choices
    for n in range(1, 31):
        weights = counting._forest_weights(n, 1)
        assert weights[0] == 0
        assert list(weights[1:]) == [rooted_forest_count_closed_form(n, m) for m in range(1, n + 1)]


def test_forest_known_row():
    assert [count_forests(4, r).value for r in range(4)] == [1, 6, 15, 16]


def test_forest_top_count_is_cayley():
    for l in range(1, 8):
        assert count_forests(l, l - 1).value == cayley(l)


@pytest.mark.parametrize(
    "l, total", [(10, 205608536), (11, 4767440679), (12, 123373203208)]
)
def test_forest_counts_past_enumeration(l, total):
    # labeled forests on l vertices (OEIS A001858), past the l <= 8 enumerator
    assert sum(count_forests(l, r).value for r in range(l)) == total
    assert count_forests(l, l - 1).value == cayley(l)


def test_forest_top_count_is_cayley_at_l150():
    assert count_forests(150, 149).value == cayley(150)


@pytest.mark.parametrize("l, r", [(0, 0), (-1, 0), (5, 5), (5, -1)])
def test_count_forests_rejects_bad_arguments(l, r):
    message = rf"l must be in \[1, inf\), got {l}" if l < 1 else "need 0 <= r <= l-1"
    with pytest.raises(ValueError, match=message):
        count_forests(l, r)


def test_enumerate_forests_consistent():
    for l in range(1, 6):
        for r in range(l):
            forests = list(enumerate_forests(l, r))
            assert len(forests) == count_forests(l, r).value
            assert len(set(forests)) == len(forests)


def test_forest_stream_matches_filter_oracle():
    # same tuples in the same order as filtering itertools.combinations
    cells = [(l, r) for l in range(8) for r in range(l)] + [(8, r) for r in range(6)]
    cells += [(0, 0), (1, 1), (3, 3), (4, 6)]  # r past l-1: only (0, 0) yields
    for l, r in cells:
        assert list(enumerate_forests(l, r)) == list(forests_by_filter(l, r)), (l, r)


def test_forest_stream_l8_pinned():
    # SHA-256 of the l=8, r=7 stream, recorded with the itertools filter
    stream = "".join(map(repr, enumerate_forests(8, 7)))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "6e7745ec29a0fd6e800eed498a350b0d9ddd95c0c75fef035f9a035f6b86f8be"
    )


def test_forest_enumeration_l8_matches_recurrence():
    for r in range(8):
        assert count_forests_enumerated(8, r) == count_forests(8, r).value


@pytest.mark.parametrize("l, r", [(-2, 0), (9, 0), (3, -1)])
def test_enumerate_forests_rejects_bad_arguments(l, r):
    message = f"r must be non-negative, got {r}" if r < 0 else rf"l must be in \[0, 8\], got {l}"
    with pytest.raises(ValueError, match=message):
        list(enumerate_forests(l, r))


@pytest.mark.parametrize("m", [0, 5, -1])
def test_rooted_forest_enumeration_rejects_bad_m(m):
    with pytest.raises(ValueError, match=rf"need 1 <= m <= l, got l=3, m={m}"):
        rooted_forest_count_enumerated(3, m)


def test_rooted_forest_closed_form_exponent():
    # C(n,m) * m * n^(n-m-1) matches enumeration weighted by root choices;
    # the alternative exponent n-m+1 does not
    for n in range(2, 7):
        for m in range(1, n + 1):
            enum = rooted_forest_count_enumerated(n, m)
            assert rooted_forest_count_closed_form(n, m) == enum
            wrong = math.comb(n, m) * m * n ** (n - m + 1)
            if n > 1:
                assert wrong != enum


# --- extension bound f -------------------------------------------------------


def test_f_piecewise_domain():
    with pytest.raises(ValueError):
        f_piecewise(4, 4, 4)  # r > l-1
    with pytest.raises(ValueError):
        f_piecewise(4, 5, 0)  # l >= k
    with pytest.raises(ZeroDivisionError):
        f_piecewise(4, 4, 3)  # (k-l)^(k-r-2) = 0^(-1): undefined
    assert f_piecewise(4, 4, 1) == -math.inf  # 0^1 = 0 is fine


def test_f_piecewise_branches():
    # r < l/2: 2^r tail
    v = f_piecewise(10, 6, 2)
    expect = 2**2 * 7**3 * 4**6
    assert math.exp(v) == pytest.approx(expect, rel=1e-12)
    # l/2 <= r < l(1-1/e): 3^(2r-l) 2^(2l-3r) tail
    v = f_piecewise(10, 6, 3)
    expect = 3**0 * 2**3 * 7**3 * 4**5
    assert math.exp(v) == pytest.approx(expect, rel=1e-12)
    # r >= l(1-1/e): (l/(l-r))^(l-r) tail
    v = f_piecewise(10, 6, 5)
    expect = 6**1 * 7**3 * 4**3
    assert math.exp(v) == pytest.approx(expect, rel=1e-12)


def test_f_dominates_exact_extension_count():
    # f bounds the number of trees inducing a fixed forest on a fixed l-set
    for k in range(3, 7):
        for l in range(2, k):
            for r in range(l):
                f = math.exp(f_piecewise(k, l, r))
                worst = max(
                    count_trees_extending_forest(k, forest, l)
                    for forest in enumerate_forests(l, r)
                )
                assert worst <= f * (1 + 1e-12)


# --- overlapping tree pairs --------------------------------------------------


def _overlap_oracle(k: int, l: int):
    """Literal double loop over pairs of trees in the two families."""
    shift = k - l
    total = [0] * l
    matching = [0] * l
    trees = list(enumerate_labeled_trees(k))
    restr_a = [
        frozenset((u - shift, v - shift) for (u, v) in t if u >= shift) for t in trees
    ]
    restr_b = [frozenset((u, v) for (u, v) in t if v < l) for t in trees]
    for ra in restr_a:
        for rb in restr_b:
            r = len(ra & rb)
            total[r] += 1
            if ra == rb:
                matching[r] += 1
    return total, matching


def test_overlap_spec_examples():
    t = count_overlap_pairs(3, 2)
    assert t.pairs_total[0] == 5
    assert t.pairs_total[1] == 4
    assert count_overlap_pairs(2, 2).pairs_total[1] == 1


def test_overlap_matches_double_loop_oracle():
    for k in range(2, 5):
        for l in range(2, k + 1):
            table = count_overlap_pairs(k, l)
            total, matching = _overlap_oracle(k, l)
            assert list(table.pairs_total) == total
            assert list(table.pairs_matching) == matching


def test_superset_sums_match_pairwise_loop():
    for k in range(2, 7):
        for l in range(2, k + 1):
            assert count_overlap_pairs(k, l) == count_overlap_pairs_pairwise(k, l)


@pytest.mark.parametrize("l", range(2, 8))
def test_overlap_k7_partition_and_bounds(l):
    assert sum(count_overlap_pairs(7, l).pairs_total) == 16807**2
    assert validate_overlap_bounds(7, l).all_ok


def test_overlap_partition_small():
    for k in range(2, 6):
        for l in range(2, k + 1):
            assert sum(count_overlap_pairs(k, l).pairs_total) == cayley(k) ** 2


def test_overlap_tables_pinned():
    # SHA-256 of every table for 2 <= l <= k <= 7, recorded with the Prüfer
    # enumeration and superset sums that the closed forms replaced
    tables = [count_overlap_pairs(k, l) for k in range(2, 8) for l in range(2, k + 1)]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "e77f6fb391bd00c54a95b80078b9ce990bb8a1a0a33fdc517e8c35e52047d06b"
    )


@pytest.mark.parametrize("k, l", [(60, 40), (120, 100)])
def test_overlap_partition_past_enumeration(k, l):
    table = count_overlap_pairs(k, l)
    assert sum(table.pairs_total) == cayley(k) ** 2
    assert all(m <= t for m, t in zip(table.pairs_matching, table.pairs_total))


def test_extension_counts_match_per_tree_histogram():
    # t(F) against the per-tree restriction loop, on every forest on [l]
    for k in range(2, 8):
        for l in range(1, k + 1):
            hist = restriction_masks_loop(k, l)
            closed = {
                mask: count_trees_extending_forest(k, forest, l)
                for mask, forest in forest_masks(l)
            }
            assert set(hist) <= set(closed), (k, l)
            assert all(hist.get(mask, 0) == t for mask, t in closed.items()), (k, l)
            assert counting.extensions_match_enumeration(k, l)


def test_oracle_checks_the_public_formula(monkeypatch):
    # one t(F) formula: shifting it moves both the public count and the oracle
    forest = ((0, 1),)
    before = count_trees_extending_forest(4, forest, 3)
    extension_count = counting._extension_count
    monkeypatch.setattr(
        counting, "_extension_count", lambda k, l, c, m: extension_count(k, l, c, m) + 1
    )
    assert count_trees_extending_forest(4, forest, 3) == before + 1
    assert not counting.extensions_match_enumeration(4, 3)


def test_extension_count_edge_cases():
    for k in range(1, 7):
        assert count_trees_extending_forest(k, (), 0) == cayley(k)
        with pytest.raises(ValueError, match="need 0 <= l <= k"):
            count_trees_extending_forest(k, (), k + 1)
    assert count_trees_extending_forest(4, ((0, 1), (1, 2), (2, 3)), 4) == 1
    assert count_trees_extending_forest(4, ((0, 1), (2, 3)), 4) == 0
    with pytest.raises(ValueError, match="k >= 1"):
        count_trees_extending_forest(0, (), 0)
    with pytest.raises(ValueError, match="not a forest"):
        count_trees_extending_forest(5, ((0, 1), (1, 2), (0, 2)), 3)
    # no size limit: one edge on [2] inside [40] lies in 2 * 40^37 * 38^0 trees
    assert count_trees_extending_forest(40, ((0, 1),), 2) == 2 * 40**37


def test_matching_pairs_from_extension_counts():
    # sum over r-edge forests F of (#extensions of F)^2 = matching pair count
    for k in range(3, 6):
        for l in range(2, k):
            table = count_overlap_pairs(k, l)
            for r in range(l):
                s = sum(
                    count_trees_extending_forest(k, forest, l) ** 2
                    for forest in enumerate_forests(l, r)
                )
                assert s == table.pairs_matching[r]


def test_bounds_hold_small_grid():
    for k in range(2, 6):
        for l in range(2, k + 1):
            report = validate_overlap_bounds(k, l)
            assert report.all_ok, f"violation at k={k}, l={l}"


def test_overlap_bound_rows_pinned():
    # SHA-256 of every BoundRow for 2 <= l <= k <= 6 (floats by repr, so
    # bit-exact), recorded with the earlier LogReal-based f_piecewise
    rows = [
        dataclasses.astuple(validate_overlap_bounds(k, l))
        for k in range(2, 7)
        for l in range(2, k + 1)
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "321106d5cce1aa675f7986b9f67f9e376c2b4a6594c0603f6dccdfd07ec82913"
    )


def test_bound_row_shapes():
    report = validate_overlap_bounds(4, 3)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.n_matching <= row.n_total <= row.bound_square
        assert len(row.product_bound_checks) == 3


# --- input checks ------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: cayley(0), "k must be positive", id="cayley"),
        pytest.param(
            lambda: next(enumerate_labeled_trees(10)), "k must be in [1, 9], got 10",
            id="enumerate_labeled_trees",
        ),
        pytest.param(
            lambda: enumerate_labeled_trees(10), "k must be in [1, 9], got 10",
            id="enumerate_labeled_trees-at-call",
        ),
        pytest.param(
            lambda: count_forests_enumerated(3, 3), "need 0 <= r <= l-1, got l=3, r=3",
            id="count_forests_enumerated",
        ),
        pytest.param(
            lambda: rooted_forest_count_closed_form(3, 0), "need 1 <= m <= n",
            id="rooted_forest_count_closed_form",
        ),
        pytest.param(
            lambda: count_overlap_pairs(3, 1), "need 2 <= l <= k, got k=3, l=1",
            id="count_overlap_pairs",
        ),
        pytest.param(
            lambda: count_trees_extending_forest(4, [(0, 3)], 3),
            "forest edge (0,3) outside [0, 3)",
            id="count_trees_extending_forest",
        ),
        pytest.param(
            lambda: validate_overlap_bounds(8, 2), "need 2 <= l <= k <= 7, got k=8, l=2",
            id="validate_overlap_bounds",
        ),
    ],
)
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
