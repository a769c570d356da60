"""Independent counting oracles that only the tests use."""
import itertools
import math
from math import comb, e, log, log1p
from typing import NamedTuple

import numpy as np

from indtrees.counting import (
    OverlapTable,
    _forests,
    _restriction_masks,
    enumerate_labeled_trees,
    f_piecewise,
)
from indtrees.graphs import (
    MAX_N,
    Graph,
    _pair_index,
    _sample_pair_index,
    forest_components,
    induced_subgraph,
    is_tree,
)
from indtrees.moments import (
    DEFAULT_W_EXPONENT,
    _check_p,
    log_binom,
    log_expected_trees,
    partition_points,
)
from indtrees.rng import Seed
from indtrees.solver import DEFAULT_BUDGET, SolveResult


def monte_carlo_tree_count(
    n: int, p: float, k: int, trials: int, seed: Seed
) -> tuple[float, float]:
    """Mean and standard error of the number of induced k-trees over sampled
    graphs, counted by explicit subset enumeration (independent of the
    log-domain expectation formula)."""
    pair_index = {
        pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))
    }
    m = len(pair_index)
    subsets = list(itertools.combinations(range(n), k))
    sub_pairs = np.array(
        [
            [pair_index[pq] for pq in itertools.combinations(s, 2)]
            for s in subsets
        ],
        dtype=np.int64,
    )
    # encode each subset's induced edge pattern as an integer; trees on k
    # labeled vertices give the admissible patterns
    local_pairs = list(itertools.combinations(range(k), 2))
    weights = (1 << np.arange(len(local_pairs), dtype=np.int64))
    is_tree_code = np.zeros(1 << len(local_pairs), dtype=bool)  # indexed by pattern
    for tree in enumerate_labeled_trees(k):
        is_tree_code[sum(1 << local_pairs.index(e) for e in tree)] = True

    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        # pair_index follows the sampler's lexicographic pair order
        edgevec = np.zeros(m, dtype=np.int64)
        edgevec[_sample_pair_index(n, p, Seed(seed.master, t))] = 1
        codes = edgevec[sub_pairs] @ weights
        counts[t] = np.count_nonzero(is_tree_code[codes])
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return mean, stderr


def uniform_gnp(n: int, p: float, seed: Seed) -> Graph:
    """G(n,p) drawn with one uniform per pair in lexicographic order, a pair
    joined when its uniform is below p; the solver pins are recorded on these
    graphs, so they follow the solver and not the sampler's stream."""
    below = seed.generator().random(n * (n - 1) // 2) < p
    return Graph._from_pair_index(n, np.flatnonzero(below))


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    if n >= 3:
        edges.append((0, n - 1))
    return Graph(n, edges)


def adjacency_rows(n: int, edges) -> tuple[int, ...]:
    """Neighbour bitmasks on [n], one pair of bit operations per edge."""
    adj = [0] * n
    for (u, v) in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def count_induced_k_trees(g: Graph, k: int) -> int:
    """Direct count by subset enumeration; cross-check for the vectorized path."""
    return sum(
        1
        for s in itertools.combinations(range(g.n), k)
        if is_tree(induced_subgraph(g, s))
    )


def _decode_prufer(seq: tuple[int, ...], k: int) -> tuple[tuple[int, int], ...]:
    deg = [1] * k
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf == -1:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v) if leaf < v else (v, leaf))
        deg[leaf] -= 1
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    # two vertices of degree 1 remain
    u = leaf
    if u == -1:
        while deg[ptr] != 1:
            ptr += 1
        u = ptr
    w = -1
    for x in range(u + 1, k):
        if deg[x] == 1:
            w = x
    edges.append((u, w))
    edges.sort()
    return tuple(edges)


def prufer_trees(k: int):
    """Labeled trees on {0..k-1} (k >= 3), one linear-time scalar Prüfer
    decode per sequence, in itertools.product order."""
    for seq in itertools.product(range(k), repeat=k - 2):
        yield _decode_prufer(seq, k)


def forests_by_filter(l: int, r: int):
    """All forests on [l] with r edges: every r-subset of the pairs, in
    itertools.combinations order, kept when it closes no cycle."""
    all_edges = list(itertools.combinations(range(l), 2))
    for sub in itertools.combinations(all_edges, r):
        if forest_components(l, sub) is not None:
            yield sub


def enumerate_forests(l: int, r: int):
    """All forests on [l] with r edges (l <= 8), in itertools.combinations order,
    as edge tuples decoded from the row blocks of indtrees.counting._forests."""
    blocks = _forests(l, r)
    if r == 0:
        yield ()
        return
    us, vs = np.triu_indices(l, 1)
    pairs = np.empty(len(us), dtype=object)
    pairs[:] = list(zip(us.tolist(), vs.tolist()))
    for rows, _ in blocks:
        items = pairs[rows].ravel().tolist()
        yield from zip(*[iter(items)] * r)


def forest_masks(l: int):
    """(mask, forest) for every forest on [l], bit i of the mask for the i-th
    pair of itertools.combinations(range(l), 2)."""
    pair_bit = {p: i for i, p in enumerate(itertools.combinations(range(l), 2))}
    for r in range(l):
        for forest in forests_by_filter(l, r):
            yield sum(1 << pair_bit[e] for e in forest), forest


def restriction_masks_loop(k: int, l: int) -> dict[int, int]:
    """Histogram of the edge masks that the trees on {0..k-1} induce on
    {0..l-1}, one Python loop over each tree's edge tuple."""
    pair_bit = {p: i for i, p in enumerate(itertools.combinations(range(l), 2))}
    hist: dict[int, int] = {}
    for tree in enumerate_labeled_trees(k):
        mask = 0
        for (u, v) in tree:
            if v < l:
                mask |= 1 << pair_bit[(u, v)]
        hist[mask] = hist.get(mask, 0) + 1
    return hist


def _shared_end_masks(k: int, l: int) -> dict[int, int]:
    """Histogram of the edge masks that the trees on {0..k-1} induce on their
    last l vertices {k-l..k-1}, relabeled to {0..l-1}: family A's restrictions."""
    pair_bit = {p: i for i, p in enumerate(itertools.combinations(range(l), 2))}
    shift = k - l
    hist: dict[int, int] = {}
    for tree in enumerate_labeled_trees(k):
        mask = 0
        for (u, v) in tree:
            if u >= shift:
                mask |= 1 << pair_bit[(u - shift, v - shift)]
        hist[mask] = hist.get(mask, 0) + 1
    return hist


def count_overlap_pairs_pairwise(k: int, l: int) -> OverlapTable:
    """N(k, l, r) by combining every pair of restriction-histogram cells, with
    family A's histogram built directly from the last l vertices of each tree."""
    hist_a, hist_b = _shared_end_masks(k, l), _restriction_masks(k, l)
    total = [0] * l
    matching = [0] * l
    for m1, c1 in hist_a.items():
        for m2, c2 in hist_b.items():
            r = (m1 & m2).bit_count()
            total[r] += c1 * c2
            if m1 == m2:
                matching[r] += c1 * c2
    return OverlapTable(k, l, tuple(total), tuple(matching))


# --- variance-ratio bound, one ell at a time ---------------------------------


def log_sum_exp_one_sum(logs) -> float:
    """ln(sum(e**x for x in logs)) as one plain sum() of math.exp(x - m) over
    every x, in order, with m the maximum: the bits logreal.log_sum_exp must
    reproduce. -inf on an empty input, m for a maximum m = ±inf."""
    x = np.fromiter(logs, dtype=float)
    if x.size == 0:
        return -math.inf
    m = float(x.max())
    if math.isinf(m):
        return m
    return m + math.log(sum(math.exp(v - m) for v in x.tolist()))


def f1_max_scan(k: int, ell: int, log_ps: float) -> float:
    """max over 0 <= r < ell of f0(k, r) + (k - r) log_ps, every r evaluated
    with math.log: the full scan that _OverlapTerms._f1_max must reproduce."""
    r = np.arange(ell)
    mid = math.ceil(ell / 2)  # first r >= ell / 2
    top = math.ceil(ell * (1 - 1 / e))  # first r >= ell (1 - 1/e)
    f0 = np.empty(ell)
    f0[:mid] = r[:mid] * log(2)
    f0[mid:top] = k * log(4 / 3) + r[mid:top] * log(9 / 8)
    f0[top:] = (k - r[top:]) * np.array([log(x) for x in (ell / (ell - r[top:])).tolist()])
    return float(np.max(f0 + (k - r) * log_ps))


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


class LoopBound(NamedTuple):
    regime: str
    entries: tuple[tuple[str, int, float], ...]  # (part, ell, log summand)
    part_log_sums: dict[str, float]
    log_total: float


def variance_ratio_bound_loop(
    n: int, p: float, k: int, w_exponent: float = DEFAULT_W_EXPONENT
) -> LoopBound:
    """Per-overlap upper bounds on F_ell / (E X_k)^2 and their partial sums,
    one scalar evaluation per ell: the loop that variance_ratio_bound's numpy
    evaluation must reproduce bit for bit.

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
        name: log_sum_exp_one_sum(v for (pn, _, v) in entries if pn == name)
        for name in part_names
    }
    total = log_sum_exp_one_sum(v for (_, _, v) in entries)
    return LoopBound("sparse" if sparse else "dense", tuple(entries), part_log_sums, total)


def read_graph_lines(path) -> Graph:
    """graphs.read_graph as a line-by-line reader: the file read as ASCII
    text, each line split by str.split() and each token cast by int(), 512
    lines at a time."""
    with open(path, "r", encoding="ascii") as fh:
        header, _, body = fh.read().partition("\n")
    header = header.split()
    if len(header) != 2:
        raise ValueError("malformed header, expected 'n m'")
    n, m = int(header[0]), int(header[1])
    if not 0 <= n <= MAX_N:
        raise ValueError(f"vertex count {n} outside [0, {MAX_N}]")
    lines = body.split("\n")
    pairs = []
    for a in range(0, len(lines), 512):
        tokens = list(map(str.split, lines[a : a + 512]))
        per_line = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
        bad = np.flatnonzero((per_line != 0) & (per_line != 2))
        if bad.size:
            line = a + bad[0]
            raise ValueError(f"line {line + 2}: expected 'u v', got {lines[line]!r}")
        try:
            pairs.append(np.array(list(itertools.chain.from_iterable(tokens)), dtype=np.int64))
        except OverflowError:
            raise ValueError("vertex out of range") from None
    uv = np.concatenate(pairs).reshape(-1, 2)
    us, vs = uv[:, 0], uv[:, 1]
    bad = np.flatnonzero(~((0 <= us) & (us < vs) & (vs < n)))
    if bad.size:
        u, v = uv[bad[0]].tolist()
        raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
    idx = _pair_index(n, us, vs)
    if idx.size != m:
        raise ValueError(f"header claims {m} edges, found {idx.size}")
    return Graph._from_pair_index(n, idx)


def max_induced_tree_reference(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """solver.max_induced_tree's node loop as it stood before the include
    child was followed in place: every child is pushed, and the incumbent and
    the bound are checked when it is popped. The fast loop must return the
    same SolveResult (size, witness, nodes, optimal) at every budget."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = g.n
    adj = g.adj
    best_size = best_mask = min(n, 1)  # vertex 0 alone, or the empty tree at n = 0
    nodes = 0
    for root in range(n):
        if n - root <= best_size:
            break
        pool = ((1 << n) - 1) >> (root + 1) << (root + 1)  # above the root
        stack = [(1 << root, pool, adj[root], 1)]
        while stack:
            tree, pool, once, size = stack.pop()
            if size > best_size:
                best_size = size
                best_mask = tree
            frontier = pool & once
            if not frontier or size + pool.bit_count() <= best_size:
                continue
            nodes += 1
            if nodes >= budget:
                return SolveResult(best_size, best_mask, nodes, False)
            v = frontier & -frontier
            a = adj[v.bit_length() - 1]
            pool &= ~v
            # LIFO: the include branch is explored before the exclude branch
            stack.append((tree, pool, once, size))
            stack.append((tree | v, pool & ~(once & a), once | a, size + 1))
    return SolveResult(best_size, best_mask, nodes, True)
