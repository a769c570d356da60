"""Independent counting oracles that only the tests use."""
import itertools
import math

import numpy as np

from indtrees.counting import OverlapTable, _restriction_masks, enumerate_labeled_trees
from indtrees.graphs import Graph, _sample_pair_index, induced_subgraph, is_tree
from indtrees.rng import Seed


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
    tree_codes = []
    for tree in enumerate_labeled_trees(k):
        code = 0
        for e in tree:
            code |= 1 << local_pairs.index(e)
        tree_codes.append(code)
    tree_codes = np.unique(np.array(tree_codes, dtype=np.int64))

    counts = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        # pair_index follows the sampler's lexicographic pair order
        edgevec = np.zeros(m, dtype=np.int64)
        edgevec[_sample_pair_index(n, p, seed.with_stream(t))] = 1
        codes = edgevec[sub_pairs] @ weights
        counts[t] = np.count_nonzero(np.isin(codes, tree_codes))
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return mean, stderr


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
