"""Exact counting of labeled trees, forests, and overlapping tree pairs.

Everything here is integer-exact. Overlap and extension counts come in closed
form at any k, and enumeration of small cases cross-checks them; these counts
are the ground truth against which the analytic bounds in `moments` are checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .graphs import forest_components
from .logreal import pow_log

MAX_TREE_K = 9  # k^(k-2) trees; 9^7 ~ 4.8M is the practical ceiling
MAX_OVERLAP_K = 7  # validate_overlap_bounds' float bounds and the enumeration cross-check
PRODUCT_BOUND_PS = (0.1, 0.3, 0.5)  # the p at which validate_overlap_bounds checks the product bound
_PRUFER_BATCH = 2048  # rows per numpy step in the tree and forest streams

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def cayley(k: int) -> int:
    """Number of labeled trees on k vertices, with the k^(k-2)=1 convention at k<=2."""
    if k < 1:
        raise ValueError("k must be positive")
    return 1 if k <= 2 else k ** (k - 2)


def _tree_code_batches(k: int) -> Iterator[np.ndarray]:
    """The labeled trees on {0..k-1} (k >= 2), _PRUFER_BATCH at a time, as
    uint8 rows of k-1 edge codes u*k + v (u < v), each row sorted.

    Trees come in the itertools.product order of their Prüfer sequences. Step
    i joins seq[i] to the lowest vertex that is neither removed yet nor in
    seq[i:]: the lowest bit of free & avail[i], where avail[i] is the
    complement of the OR of 1 << seq[j] over j >= i. The last edge joins the
    two vertices left in free. Arrays are laid out one sequence per column.
    """
    bit = (1 << np.arange(k)).astype(np.int16)
    low = np.zeros(1 << k, dtype=np.uint8)  # mask -> its lowest set bit
    low[1:] = [(m & -m).bit_length() - 1 for m in range(1, 1 << k)]
    total = k ** (k - 2)
    for start in range(0, total, _PRUFER_BATCH):
        index = np.arange(start, min(start + _PRUFER_BATCH, total), dtype=np.uint32)
        seq = np.empty((k - 2, len(index)), dtype=np.uint8)
        avail = np.empty((k - 2, len(index)), dtype=np.int16)
        later = 0
        for i in range(k - 3, -1, -1):
            seq[i] = index // k ** (k - 3 - i) % k
            later = later | bit.take(seq[i])
            avail[i] = ~later
        free = np.full(len(index), (1 << k) - 1, dtype=np.int16)
        codes = np.empty((k - 1, len(index)), dtype=np.uint8)
        for i in range(k - 2):
            leaf = low.take(free & avail[i])
            codes[i] = np.minimum(leaf, seq[i]) * k + np.maximum(leaf, seq[i])
            free ^= bit.take(leaf)
        codes[k - 2] = low.take(free) * k + low.take(free & (free - 1))
        codes = codes.T.copy()
        codes.sort(axis=1)  # code order is (u, v) order
        yield codes


def enumerate_labeled_trees(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield each labeled tree on {0..k-1} exactly once, as a sorted edge tuple,
    in the itertools.product order of the trees' Prüfer sequences."""
    if not (1 <= k <= MAX_TREE_K):
        raise ValueError(f"k must be in [1, {MAX_TREE_K}], got {k}")
    if k == 1:
        yield ()
        return
    pairs = np.empty(k * k, dtype=object)  # edge code u*k + v -> (u, v)
    pairs[:] = [(u, v) for u in range(k) for v in range(k)]
    for codes in _tree_code_batches(k):
        items = pairs[codes].ravel().tolist()
        yield from zip(*[iter(items)] * (k - 1))  # k - 1 edges per tree


@dataclass(frozen=True)
class ForestCount:
    l: int
    r: int
    value: int


def count_forests_enumerated(l: int, r: int) -> int:
    """phi(l, r) by counting the rows that _forests grows; oracle path, l <= 8."""
    if not (0 <= r <= max(l - 1, 0)):
        raise ValueError(f"need 0 <= r <= l-1, got l={l}, r={r}")
    return sum(len(rows) for rows, _ in _forests(l, r))


@lru_cache(maxsize=None)
def _forest_weights(l: int, power: int) -> tuple[int, ...]:
    """Sum of prod c_i^power over the forests on [l] with m trees of sizes
    c_1..c_m, for m = 0..l: power 0 counts forests, power 2 gives psi.

    Built bottom-up over the number of vertices n: the tree holding vertex 0
    has j vertices, chosen in C(n-1, j-1) ways and spanned in cayley(j) ways,
    and the other n - j vertices carry a forest with one tree fewer.
    """
    rows = [(1,)]  # n = 0: the empty forest
    for n in range(1, l + 1):
        row = [0] * (n + 1)
        for j in range(1, n + 1):
            weight = math.comb(n - 1, j - 1) * cayley(j) * j**power
            for m, w in enumerate(rows[n - j]):
                row[m + 1] += weight * w
        rows.append(tuple(row))
    return rows[l]


def count_forests(l: int, r: int) -> ForestCount:
    """Exact phi(l, r) for any l >= 1, from the forest-weight table."""
    if l < 1:
        raise ValueError(f"l must be in [1, inf), got {l}")
    if not (0 <= r <= l - 1):
        raise ValueError(f"need 0 <= r <= l-1, got l={l}, r={r}")
    return ForestCount(l, r, _forest_weights(l, 0)[l - r])


def _forest_blocks(
    rows: np.ndarray, labels: np.ndarray, last: np.ndarray, more: int,
    us: np.ndarray, vs: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Extend each forest row by `more` further edges, each of index above the
    row's last, and yield the results in lexicographic order, in blocks of at
    most _PRUFER_BATCH rows, each block with its rows' labels.

    A row is a forest's edge indices into (us, vs) in increasing order, with
    labels[row] a component label per vertex. An edge extends a row when its
    ends carry different labels; np.nonzero lists the extensions of a block
    row by row, so each level stays in lexicographic order. Every subset of a
    forest is a forest, so no forest is missed.
    """
    for start in range(0, len(rows), _PRUFER_BATCH):
        block = slice(start, start + _PRUFER_BATCH)
        if more == 0:
            yield rows[block], labels[block]
            continue
        lab = labels[block]
        lu, lv = lab[:, us], lab[:, vs]
        row, edge = np.nonzero((np.arange(len(us)) > last[block]) & (lu != lv))
        lab = lab[row]
        merged = np.where(lab == lv[row, edge][:, None], lu[row, edge][:, None], lab)
        grown = np.column_stack((rows[block][row], edge.astype(np.int8)))
        yield from _forest_blocks(grown, merged, edge[:, None], more - 1, us, vs)


def _forests(l: int, r: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (rows, labels) blocks of the forests on [l] (l <= 8) with r edges,
    grown from the empty forest by _forest_blocks."""
    if not (0 <= l <= 8):
        raise ValueError(f"l must be in [0, 8], got {l}")
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    us, vs = np.triu_indices(l, 1)  # the pairs in combinations order
    empty = np.zeros((1, 0), dtype=np.int8)
    labels = np.arange(l, dtype=np.int8)[None, :]
    return _forest_blocks(empty, labels, np.array([[-1]]), r, us, vs)


def _size_products(labels: np.ndarray) -> np.ndarray:
    """Each forest's product of component sizes, from its per-vertex labels."""
    sizes = (labels[:, :, None] == np.arange(labels.shape[1])).sum(axis=1)  # per row and label
    return np.prod(np.maximum(sizes, 1), axis=1)


def rooted_forest_count_closed_form(n: int, m: int) -> int:
    """C(n,m) * m * n^(n-m-1): rooted forests on [n] with m trees.

    The exponent here is n-m-1. Enumeration in the tests refutes the n-m+1
    variant (test_rooted_forest_closed_form_exponent, acceptance criterion 4);
    `oracle validate` checks only this closed form.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    return math.comb(n, m) * m * n ** (n - m - 1)


def rooted_forest_count_enumerated(l: int, m: int) -> int:
    """Rooted forests on [l] with m trees (l <= 8): each forest weighted by the
    product of its component sizes (one root choice per tree), counted from
    the component labels that _forest_blocks keeps per vertex."""
    if not (1 <= m <= l):
        raise ValueError(f"need 1 <= m <= l, got l={l}, m={m}")
    return sum(int(_size_products(labels).sum()) for _, labels in _forests(l, l - m))


def f_piecewise(k: int, l: int, r: int) -> float:
    """ln of a piecewise upper bound on the number of k-trees inducing a fixed
    r-edge forest on a fixed l-set; branches split at l/2 and l(1-1/e).

    -inf where the bound is 0; ZeroDivisionError where it is undefined."""
    if not (0 <= r <= l - 1 < k):
        raise ValueError(f"need 0 <= r <= l-1 < k, got k={k}, l={l}, r={r}")
    tail = pow_log(l + 1, k - l - 1) + pow_log(k - l, k - r - 2)
    if r < l / 2:
        return pow_log(2, r) + tail
    if r < l * ONE_MINUS_INV_E:
        return pow_log(3, 2 * r - l) + pow_log(2, 2 * l - 3 * r) + tail
    return pow_log(l / (l - r), l - r) + tail


@dataclass(frozen=True)
class OverlapTable:
    """Exact pair counts for trees on [k] and on {k-l .. 2k-l-1} sharing l vertices.

    pairs_total[r]: all pairs whose edge intersection on the shared l-set has
    exactly r edges (partitions all (k^(k-2))^2 pairs). pairs_matching[r]:
    pairs whose restrictions to the shared set are identical with r edges --
    the only pairs that can both appear as induced trees in one graph, and
    the count the analytic bounds apply to.
    """

    k: int
    l: int
    pairs_total: tuple[int, ...]
    pairs_matching: tuple[int, ...]


def _restriction_masks(k: int, l: int) -> dict[int, int]:
    """Histogram of the edge masks that the trees on {0..k-1} induce on
    {0..l-1}, bit i for the i-th pair of np.triu_indices(l, 1) (combinations
    order): the enumeration that extensions_match_enumeration checks t(F) against."""
    us, vs = np.triu_indices(l, 1)
    bit = np.zeros(k * k, dtype=np.int64)  # edge code -> its bit in the shared-set mask
    bit[us * k + vs] = 1 << np.arange(len(us))
    masks = np.concatenate(
        [np.bitwise_or.reduce(bit[codes], axis=1) for codes in _tree_code_batches(k)]
    )
    values, counts = np.unique(masks, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def count_overlap_pairs(k: int, l: int) -> OverlapTable:
    """Exact N(k, l, r) for all r, in closed form (Moon, Counting Labelled
    Trees, 1970); tests.oracles.count_overlap_pairs_pairwise enumerates them.

    Relabeled to [l], the shared set meets both families alike. With psi(l, m)
    the sum of prod c_i^2 over its forests with m trees, each r-edge forest F
    pairs with itself t(F)^2 times (see count_trees_extending_forest), so
    N_match(r) = k^(2(s-1)) s^(2(m-1)) psi(l, m), s = k - l, m = l - r. A
    j-edge forest S lies in a(S) = k^(k-j-2) prod c_i trees on [k], so
    G(j) = sum over |S| = j of a(S)^2 = k^(2(k-j-2)) psi(l, l-j) counts each
    pair sharing r edges C(r, j) times; binomial inversion gives N.
    """
    if not (2 <= l <= k):
        raise ValueError(f"need 2 <= l <= k, got k={k}, l={l}")
    psi = _forest_weights(l, 2)
    s = k - l
    # the factor k^-2 divides exactly, also at j = k - 1 and s = 0, where psi
    # holds k^2 per spanning tree of [l] (see count_trees_extending_forest)
    g = [k ** (2 * (k - j - 1)) * psi[l - j] // k**2 for j in range(l)]
    total = [
        sum((-1) ** (j - r) * math.comb(j, r) * g[j] for j in range(r, l))
        for r in range(l)
    ]
    matching = [(k**s * s ** (l - r - 1)) ** 2 * psi[l - r] // k**2 for r in range(l)]
    return OverlapTable(k, l, tuple(total), tuple(matching))


def count_trees_extending_forest(
    k: int, forest: Iterable[tuple[int, int]], l: int
) -> int:
    """Number of trees on {0..k-1} that induce exactly the given forest on {0..l-1}.

    With c_1..c_m the sizes of the forest's m trees and s = k - l >= 1, this is
    t(F) = prod c_i * k^(s-1) * s^(m-1): the spanning trees of the complete
    multipartite graph that contracts each tree of F to one vertex of weight
    c_i (Moon, Counting Labelled Trees, 1970). At s = 0 it is 1 if F spans
    [l] and 0 otherwise; l = 0 leaves cayley(k). extensions_match_enumeration
    is the oracle.
    """
    if not (0 <= l <= k and k >= 1):
        raise ValueError(f"need 0 <= l <= k and k >= 1, got k={k}, l={l}")
    forest = tuple(tuple(sorted(e)) for e in forest)
    for (a, b) in forest:
        if not (0 <= a < b < l):
            raise ValueError(f"forest edge ({a},{b}) outside [0, {l})")
    sizes = forest_components(l, forest)
    if sizes is None:
        raise ValueError("input is not a forest")
    if l == 0:
        return cayley(k)
    return _extension_count(k, l, math.prod(sizes), len(sizes))


def _extension_count(k: int, l: int, size_product: int, m: int) -> int:
    """t(F) for a forest on [l], 1 <= l <= k, of m trees of size product size_product."""
    # k divides k^s for s >= 1; at s = 0, prod c_i = k if F spans and 0^(m-1) = 0 if not
    return size_product * k ** (k - l) * (k - l) ** (m - 1) // k


def extensions_match_enumeration(k: int, l: int) -> bool:
    """Whether t(F), from each forest's (rows, labels) in _forests, equals the
    enumerated restriction histogram on every forest on [l] (2 <= k <= MAX_TREE_K,
    l <= min(k, 8)), with no other mask in it: the oracle for the closed forms."""
    bit = 1 << np.arange(l * (l - 1) // 2)  # edge index -> its bit, as in _restriction_masks
    closed = {}
    for r in range(l):
        rows, labels = map(np.concatenate, zip(*_forests(l, r)))
        products = _size_products(labels).tolist()
        counts = {c: _extension_count(k, l, c, l - r) for c in set(products)}
        closed.update(zip(bit[rows].sum(axis=1).tolist(), map(counts.get, products)))
    return {mask: t for mask, t in closed.items() if t} == _restriction_masks(k, l)


def product_bound_max_ell(k: int, p: float) -> float:
    return k - 2 * (1 - p) / p  # the product bound's hypothesis is ell <= this


@dataclass(frozen=True)
class BoundRow:
    r: int
    n_total: int
    n_matching: int
    bound_square: int  # (k^(k-2))^2, against n_total
    bound_product: float | None  # k^(k-2) * f, against n_matching; None if f undefined
    bound_forest: float | None  # phi * f^2, against n_matching; None if f undefined
    ok: bool
    product_bound_checks: tuple[tuple[float, bool, bool], ...]
    # (p, applicable, ok) per p in PRODUCT_BOUND_PS: N((1-p)/p)^r <= k^(k-2)(k-l)^(k-2)(l+1)^(k-l-1)


@dataclass(frozen=True)
class BoundReport:
    k: int
    l: int
    rows: tuple[BoundRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def validate_overlap_bounds(k: int, l: int) -> BoundReport:
    """Check every counting bound the variance proof invokes against exact counts.

    The trivial square bound applies to all pairs; the f-based bounds apply to
    pairs with identical overlap restriction (the ones that can co-occur as
    induced trees). A bound that does not apply (f undefined at l=k for small
    r, or the product bound outside its l <= k - 2(1-p)/p hypothesis) is
    reported as not applicable rather than failed.
    """
    if not (2 <= l <= k <= MAX_OVERLAP_K):
        raise ValueError(f"need 2 <= l <= k <= {MAX_OVERLAP_K}, got k={k}, l={l}")
    table = count_overlap_pairs(k, l)
    phis = _forest_weights(l, 0)  # phi(l, r) at index l - r
    tk = cayley(k)
    rows = []
    for r in range(l):
        n_tot = table.pairs_total[r]
        n_match = table.pairs_matching[r]
        try:
            f = math.exp(f_piecewise(k, l, r))
        except ZeroDivisionError:
            f = None
        ok = n_tot <= tk * tk
        b_prod = b_forest = None
        if f is not None:
            b_prod = tk * f
            b_forest = phis[l - r] * f * f
            ok = ok and n_match <= b_prod * (1 + 1e-12) and n_match <= b_forest * (1 + 1e-12)
        p_checks = []
        for p in PRODUCT_BOUND_PS:
            applicable = l <= product_bound_max_ell(k, p)
            p_ok = True
            if applicable:
                lhs = n_match * ((1 - p) / p) ** r
                rhs = tk * float(k - l) ** (k - 2) * (l + 1) ** (k - l - 1)
                p_ok = lhs <= rhs * (1 + 1e-12)
                ok = ok and p_ok
            p_checks.append((p, applicable, p_ok))
        rows.append(
            BoundRow(r, n_tot, n_match, tk * tk, b_prod, b_forest, ok, tuple(p_checks))
        )
    return BoundReport(k, l, tuple(rows))
