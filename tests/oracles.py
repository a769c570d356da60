"""Independent counting oracles that only the tests use."""
import itertools
import math

import numpy as np

from indtrees.counting import enumerate_labeled_trees
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


def count_induced_k_trees(g: Graph, k: int) -> int:
    """Direct count by subset enumeration; cross-check for the vectorized path."""
    return sum(
        1
        for s in itertools.combinations(range(g.n), k)
        if is_tree(induced_subgraph(g, s))
    )
