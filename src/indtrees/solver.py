"""Maximum induced subtree solvers.

Three tiers: an exhaustive subset scan (oracle, n <= 20), a branch-and-bound
search over connected induced trees, and a randomized greedy lower bound for
sizes past the exact range.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, induced_subgraph, is_connected_set, is_tree, mask_vertices
from .rng import Seed, reset_generator

DEFAULT_BUDGET = 10**8
DEFAULT_RESTARTS = 100
_WORD_BLOCK = 256  # raw Philox words per random_raw call in the greedy; no record depends on it
_LOW32 = (1 << 32) - 1


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: int  # bitmask: bit v set iff vertex v is in the tree
    nodes_explored: int
    optimal: bool


def max_induced_tree_bruteforce(g: Graph) -> SolveResult:
    """Scan all 2^n subsets; exact, refuses n > 20."""
    n = g.n
    if n > 20:
        raise ValueError(f"brute force limited to n <= 20, got {n}")
    adj = g.adj
    # edges[S] built from S minus its lowest bit; <= C(20, 2) = 190, so a byte holds it
    edges = bytearray(1 << n)
    best_size = best_mask = min(n, 1)  # vertex 0 alone, or the empty tree at n = 0
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        e = edges[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
        edges[s] = e
        size = s.bit_count()
        if e == size - 1 and size > best_size and is_connected_set(g, s):
            best_size = size
            best_mask = s
    return SolveResult(best_size, best_mask, (1 << n) - 1, True)


def max_induced_tree(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Branch and bound over connected induced trees grown one vertex at a time.

    Each search node tracks, for its tree T:
      - `once`: the vertices with at least one neighbour in T;
      - `twice`: those with at least two. Adding v to T sets
        `twice |= once & adj[v]`, then `once |= adj[v]`. A vertex in `twice`
        would close an induced cycle, and its count only grows, so it is
        never addable again: it is dropped from `pool` when it appears, and
        `twice` itself is not stored;
      - `pool`: the vertices above the root, outside T, not excluded on this
        branch and not in `twice`.
    The addable vertices are `pool & once`, and `size + |pool|` bounds every
    tree below the node, so a node costs a few bitset operations and no scan
    of the vertices. The search branches on the lowest addable vertex,
    include first, then exclude. The include child is followed in place. The
    exclude child is stacked only when it keeps an addable vertex and its
    bound still beats the incumbent; it has the parent's tree, so it never
    improves the incumbent itself, and since the incumbent only grows, a
    child that fails the bound now would fail it when popped. Each tree is
    counted once, rooted at its minimum-index vertex. Budget counts branch
    expansions; exhaustion returns the incumbent with optimal=False.
    """
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
            while True:  # down the include children, to a leaf or a pruned node
                frontier = pool & once
                room = size + pool.bit_count()
                if not frontier or room <= best_size:
                    break
                nodes += 1
                if nodes >= budget:
                    return SolveResult(best_size, best_mask, nodes, False)
                v = frontier & -frontier
                a = adj[v.bit_length() - 1]
                pool ^= v
                if frontier != v and room - 1 > best_size:  # the exclude child
                    stack.append((tree, pool, once, size))
                tree |= v
                pool &= ~(once & a)
                once |= a
                size += 1
                if size > best_size:
                    best_size = size
                    best_mask = tree
    return SolveResult(best_size, best_mask, nodes, True)


def _nth_bit(mask: int, r: int) -> int:
    """Index of the r-th lowest set bit of mask (r = 0 is the lowest)."""
    # invariant: fewer than r+1 set bits lie below lo, at least r+1 below hi
    lo, hi = 0, mask.bit_length()
    above = mask.bit_count() - r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask >> mid).bit_count() < above:
            hi = mid
        else:
            lo = mid
    return lo


def _uint32_words(bitgen) -> Iterator[int]:
    """bitgen's 32-bit outputs in its next_uint32 order: the raw 64-bit words in
    blocks of _WORD_BLOCK, each viewed little-endian as its low half, then its high half."""
    while True:
        yield from bitgen.random_raw(_WORD_BLOCK).astype("<u8", copy=False).view("<u4").tolist()


def _below(words: Iterator[int], k: int) -> int:
    """A uniform integer in [0, k), 1 <= k <= 2^32, by numpy's 32-bit bounded
    rule (Lemire, ACM TOMACS 29, 2019): on the same words it equals
    Generator.integers(k). k = 1 takes no word."""
    if k == 1:
        return 0
    m = next(words) * k
    if m & _LOW32 < k:
        threshold = (1 << 32) % k
        while m & _LOW32 < threshold:
            m = next(words) * k
    return m >> 32


def greedy_tree_lower_bound(g: Graph, restarts: int, seed: Seed) -> SolveResult:
    """Randomized greedy extension with restarts; a valid lower bound, never optimal.

    Each restart grows a tree from a uniform root and adds a uniform addable
    vertex until none is left. It keeps the `once`/`twice` state of
    `max_induced_tree`: `pool` holds the vertices outside the tree and not in
    `twice`, so the addable ones are `pool & once`. The draw takes the r-th
    lowest of them, with r uniform below their count.

    The root and every r come from `_below` on the 32-bit halves of the raw
    words of seed's Philox stream (`reset_generator(seed)`), low half first.
    That is the rule and the order of `Generator.integers(k)` on that stream,
    so the records equal the per-step integers calls', and they depend only
    on Philox's raw words.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, False)
    adj = g.adj
    words = _uint32_words(reset_generator(seed).bit_generator)
    best_size = 1
    best_mask = 1
    for _ in range(restarts):
        root = _below(words, n)
        tree = 1 << root
        size = 1
        once = adj[root]
        pool = ((1 << n) - 1) & ~tree
        while True:
            frontier = pool & once
            if not frontier:
                break
            v = _nth_bit(frontier, _below(words, frontier.bit_count()))
            a = adj[v]
            pool &= ~((1 << v) | (once & a))
            once |= a
            tree |= 1 << v
            size += 1
        if size > best_size:
            best_size = size
            best_mask = tree
    return SolveResult(best_size, best_mask, 0, False)


def check_witness(g: Graph, result: SolveResult) -> bool:
    sub = induced_subgraph(g, mask_vertices(result.witness))
    return sub.n == result.size and is_tree(sub)
